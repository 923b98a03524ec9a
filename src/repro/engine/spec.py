"""Declarative sweep grids: ``ExperimentSpec`` and its expansion into cells.

An :class:`ExperimentSpec` names the axes of a sweep — topologies × adversary
strategies × payload sizes × ``f`` × protocols — and :meth:`ExperimentSpec.expand`
cross-products them into concrete :class:`Cell`s.  Each cell carries a
deterministic seed derived from the spec's base seed and the cell identity, so
input streams and seeded adversary strategies are bit-for-bit reproducible no
matter which worker process executes the cell or in what order.

Infeasible grid points (too few nodes for ``n >= 3f + 1``, or network
connectivity below ``2f + 1``) are filtered out during expansion rather than
failing at run time, so specs can list topology and fault axes freely.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.durable import dump_row
from repro.exceptions import ConfigurationError
from repro.graph.connectivity import meets_connectivity_requirement
from repro.sched.faults import named_fault_plans
from repro.sched.links import named_link_models
from repro.types import NodeId
from repro.workloads.scenarios import (
    Scenario,
    adversarial_scenario,
    fault_free_scenario,
    make_strategy,
    named_strategies,
    strategy_attacks_source,
)
from repro.workloads.topologies import topology


def canonical_params(params: Mapping[str, object]) -> str:
    """Canonical JSON for a strategy-parameter mapping (sorted keys, no spaces).

    The canonical string is what cell ids embed and what persisted rows carry,
    so byte-identical parameters always produce byte-identical cell ids and
    derived seeds.
    """
    return dump_row(params)

#: Strategy-axis value meaning "no Byzantine nodes at all".
FAULT_FREE = "fault-free"

#: Execution-axis values: run instances strictly one after another, or
#: overlapped per the Figure 3 pipeline (NAB only).
SEQUENTIAL = "sequential"
PIPELINED = "pipelined"
EXECUTIONS = (SEQUENTIAL, PIPELINED)


def _supports_pipelined(protocol_name: str) -> bool:
    """Whether the named protocol declares pipelined support.

    Unknown names expand normally (their cells record a per-cell lookup
    error at run time) but never get pipelined grid points.
    """
    from repro.engine.protocol import get_protocol

    try:
        return get_protocol(protocol_name).supports_pipelined
    except ConfigurationError:
        return False


def cell_seed(base_seed: int, cell_id: str) -> int:
    """A deterministic 64-bit seed for one cell, stable across processes.

    Derived from a cryptographic hash (not Python's randomised ``hash``) so
    resumed and parallel runs regenerate identical inputs.
    """
    digest = hashlib.sha256(f"{base_seed}|{cell_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Cell:
    """One concrete grid point of an experiment sweep.

    Cells are plain picklable values: the graph and strategy objects are
    (re)built inside whichever worker process executes the cell, via
    :meth:`scenario`.
    """

    spec_name: str
    cell_id: str
    topology: str
    strategy: str
    payload_bytes: int
    instances: int
    max_faults: int
    protocol: str
    source: NodeId
    seed: int
    faulty_nodes: Tuple[NodeId, ...]
    execution: str = SEQUENTIAL
    link_model: str = "instant"
    fault_plan: str = "none"
    #: Canonical-JSON strategy parameters (see :func:`canonical_params`), or
    #: the empty string for parameterless cells — the empty default keeps the
    #: ids/seeds of every pre-existing grid untouched.  May carry a
    #: ``"faulty_nodes"`` key overriding the default faulty-set placement
    #: (consumed here, not by the strategy factory), which is how
    #: search-found placements are committed in specs.
    strategy_params: str = ""
    #: Analytical-bounds-only cell: the runner computes gamma*/rho*/Eq. 6/
    #: Theorem 2 and skips protocol execution entirely (``record`` is null).
    #: The datacenter-scale grids use this — executing a broadcast protocol
    #: on a 1024-node fabric is neither needed nor affordable for charting
    #: the paper's bounds.
    bounds_only: bool = False

    def scenario(self) -> Scenario:
        """Build the fully specified scenario for this cell."""
        if self.strategy == FAULT_FREE:
            return fault_free_scenario(
                topology_name=self.topology,
                instances=self.instances,
                value_bytes=self.payload_bytes,
                max_faults=self.max_faults,
                seed=self.seed,
                source=self.source,
            )
        params = json.loads(self.strategy_params) if self.strategy_params else {}
        params.pop("faulty_nodes", None)  # placement, consumed at expansion
        return adversarial_scenario(
            topology_name=self.topology,
            strategy_name=self.strategy,
            faulty_nodes=self.faulty_nodes,
            instances=self.instances,
            value_bytes=self.payload_bytes,
            max_faults=self.max_faults,
            seed=self.seed,
            source=self.source,
            strategy_params=params or None,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep: the cross product of every listed axis.

    Attributes:
        name: Spec name, stamped on every persisted row.
        topologies: Named topologies (see :func:`repro.workloads.topology`).
        strategies: Adversary strategy names (see
            :func:`repro.workloads.named_strategies`) and/or
            :data:`FAULT_FREE`.
        payload_bytes: Per-instance value sizes in bytes.
        fault_counts: Values of the resilience parameter ``f``.
        protocols: Registered protocol names to run on every scenario.
        executions: Execution modes (:data:`SEQUENTIAL` and/or
            :data:`PIPELINED`); pipelined points are expanded only for
            pipeline-capable protocols.
        link_models: Named link models (see
            :func:`repro.sched.links.named_link_models`) the scheduled
            transport applies; ``"instant"`` is the paper's base model.
        fault_plans: Named link-fault plans (see
            :func:`repro.sched.faults.named_fault_plans`) the ARQ transport
            applies; ``"none"`` is the paper's reliable base model.
        instances: Number of broadcast instances per cell (``Q``).
        source: The broadcasting node (the paper uses node 1).
        base_seed: Root seed all per-cell seeds are derived from.
        description: Human-readable summary for ``--list``-style output.
        kernel_backend: Optional GF kernel backend name forced for every
            field the spec's cells build (see :mod:`repro.gf.backends`).
            Empty string (the default) keeps per-field auto-selection; the
            ``REPRO_GF_BACKEND`` environment variable, when set, wins over
            the spec value.  All backends compute identical values, so this
            axis never appears in cell ids — results stay byte-identical
            whichever backend executes them.
    """

    name: str
    topologies: Tuple[str, ...]
    strategies: Tuple[str, ...]
    payload_bytes: Tuple[int, ...]
    fault_counts: Tuple[int, ...]
    protocols: Tuple[str, ...]
    executions: Tuple[str, ...] = (SEQUENTIAL,)
    link_models: Tuple[str, ...] = ("instant",)
    fault_plans: Tuple[str, ...] = ("none",)
    instances: int = 3
    source: NodeId = 1
    base_seed: int = 0
    description: str = ""
    kernel_backend: str = ""
    #: Per-strategy parameter mappings, keyed by strategy name.  Parameters
    #: are validated at expansion, serialised canonically onto each cell
    #: (``Cell.strategy_params``) and appended to the cell id as ``|sp=...``
    #: — so parameterless grids keep their historical ids and seeds.  A
    #: ``"faulty_nodes"`` entry overrides the default faulty-set placement.
    strategy_params: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: When true, every expanded cell is analytical-bounds-only (see
    #: :attr:`Cell.bounds_only`); cell ids gain a ``|bounds`` suffix so the
    #: ids (and derived seeds) of ordinary grids are untouched.
    bounds_only: bool = False

    def _faulty_nodes(
        self, strategy: str, nodes: List[NodeId], max_faults: int
    ) -> Tuple[NodeId, ...]:
        """Deterministic faulty-set placement for one cell.

        Source-attacking strategies corrupt the source itself; all others
        corrupt the ``f`` highest-numbered non-source nodes (the nodes the
        example gallery traditionally sacrifices).
        """
        if strategy == FAULT_FREE:
            return ()
        override = self.strategy_params.get(strategy, {}).get("faulty_nodes")
        if override is not None:
            return tuple(sorted(override))
        non_source = [node for node in nodes if node != self.source]
        if strategy_attacks_source(strategy):
            extras = sorted(non_source, reverse=True)[: max_faults - 1]
            return tuple(sorted([self.source] + extras))
        return tuple(sorted(sorted(non_source, reverse=True)[:max_faults]))

    def expand(self) -> List[Cell]:
        """Cross-product every axis into concrete cells, in deterministic order.

        Infeasible combinations (``n < 3f + 1`` or connectivity below
        ``2f + 1``) are skipped.  Unknown strategy names raise immediately so
        typos do not silently shrink the grid.
        """
        known = set(named_strategies()) | {FAULT_FREE}
        for strategy in self.strategies:
            if strategy not in known:
                raise ConfigurationError(
                    f"spec {self.name!r} references unknown strategy {strategy!r}"
                )
        for strategy, params in self.strategy_params.items():
            if strategy == FAULT_FREE or strategy not in known:
                raise ConfigurationError(
                    f"spec {self.name!r} has strategy_params for "
                    f"{strategy!r}, which is not a parametrisable strategy"
                )
            probe = dict(params)
            override = probe.pop("faulty_nodes", None)
            if override is not None:
                nodes = list(override)
                if not nodes or any(
                    isinstance(node, bool) or not isinstance(node, int)
                    for node in nodes
                ) or len(nodes) != len(set(nodes)):
                    raise ConfigurationError(
                        f"spec {self.name!r}: faulty_nodes override for "
                        f"{strategy!r} must be distinct node ids, got {override!r}"
                    )
                if strategy in self.strategies and any(
                    len(nodes) > f for f in self.fault_counts
                ):
                    raise ConfigurationError(
                        f"spec {self.name!r}: faulty_nodes override for "
                        f"{strategy!r} exceeds a listed fault count"
                    )
            # Instantiating validates the parameter names and values.
            make_strategy(strategy, 0, probe)
        for execution in self.executions:
            if execution not in EXECUTIONS:
                raise ConfigurationError(
                    f"spec {self.name!r} references unknown execution {execution!r}; "
                    f"available: {', '.join(EXECUTIONS)}"
                )
        known_models = set(named_link_models())
        for model in self.link_models:
            if model not in known_models:
                raise ConfigurationError(
                    f"spec {self.name!r} references unknown link model {model!r}; "
                    f"available: {', '.join(sorted(known_models))}"
                )
        if self.kernel_backend:
            from repro.gf.backends import available_backend_names

            if self.kernel_backend not in available_backend_names():
                raise ConfigurationError(
                    f"spec {self.name!r} references unknown or unavailable GF "
                    f"kernel backend {self.kernel_backend!r}; available: "
                    f"{', '.join(available_backend_names())}"
                )
        known_plans = set(named_fault_plans())
        for plan in self.fault_plans:
            if plan not in known_plans:
                raise ConfigurationError(
                    f"spec {self.name!r} references unknown fault plan {plan!r}; "
                    f"available: {', '.join(sorted(known_plans))}"
                )
        cells: List[Cell] = []
        feasibility: Dict[Tuple[str, int], bool] = {}
        node_lists: Dict[str, List[NodeId]] = {}
        for topology_name in self.topologies:
            if topology_name not in node_lists:
                node_lists[topology_name] = topology(topology_name).nodes()
            for max_faults in self.fault_counts:
                key = (topology_name, max_faults)
                if key not in feasibility:
                    graph = topology(topology_name)
                    feasibility[key] = (
                        graph.node_count() >= 3 * max_faults + 1
                        and meets_connectivity_requirement(graph, max_faults)
                    )
                if not feasibility[key]:
                    continue
                for strategy in self.strategies:
                    faulty = self._faulty_nodes(
                        strategy, node_lists[topology_name], max_faults
                    )
                    if not set(faulty) <= set(node_lists[topology_name]):
                        raise ConfigurationError(
                            f"spec {self.name!r}: faulty_nodes {sorted(faulty)} "
                            f"are not all nodes of topology {topology_name!r}"
                        )
                    params = (
                        {}
                        if strategy == FAULT_FREE
                        else self.strategy_params.get(strategy, {})
                    )
                    params_json = canonical_params(params) if params else ""
                    for payload in self.payload_bytes:
                        for protocol in self.protocols:
                            for execution in self.executions:
                                if execution == PIPELINED and not _supports_pipelined(
                                    protocol
                                ):
                                    continue
                                for model in self.link_models:
                                    for plan in self.fault_plans:
                                        cell_id = (
                                            f"{protocol}|{topology_name}|{strategy}"
                                            f"|f={max_faults}|L={payload}"
                                            f"|Q={self.instances}"
                                            f"|src={self.source}"
                                        )
                                        # Non-default axis values are appended
                                        # so default-grid cell ids (and hence
                                        # their derived seeds and any
                                        # previously persisted results) stay
                                        # exactly as they were before these
                                        # axes existed.
                                        if execution != SEQUENTIAL:
                                            cell_id += f"|exec={execution}"
                                        if model != "instant":
                                            cell_id += f"|lm={model}"
                                        if plan != "none":
                                            cell_id += f"|fp={plan}"
                                        if params_json:
                                            cell_id += f"|sp={params_json}"
                                        if self.bounds_only:
                                            cell_id += "|bounds"
                                        cells.append(
                                            Cell(
                                                spec_name=self.name,
                                                cell_id=cell_id,
                                                topology=topology_name,
                                                strategy=strategy,
                                                payload_bytes=payload,
                                                instances=self.instances,
                                                max_faults=max_faults,
                                                protocol=protocol,
                                                source=self.source,
                                                seed=cell_seed(
                                                    self.base_seed, cell_id
                                                ),
                                                faulty_nodes=faulty,
                                                execution=execution,
                                                link_model=model,
                                                fault_plan=plan,
                                                strategy_params=params_json,
                                                bounds_only=self.bounds_only,
                                            )
                                        )
        return cells
