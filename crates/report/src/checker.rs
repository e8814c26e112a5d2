//! Independent certificate checker.
//!
//! Verifies a rendered `turbomap-report/v2` document **without trusting
//! the mapper**: every quantity a witness step relies on is recomputed
//! here from scratch — `frt(v)` by a fresh Dijkstra over the register
//! weights, replicated cones by a fresh `(node, weight)` expansion, and
//! cut existence by a fresh node-split max-flow. The only trusted
//! boundary is the `netlist` graph representation itself (node/edge
//! accessors) and `turbomap::prepare`, which derives the bounded network
//! the labels are defined on.
//!
//! The derivation log is replayed in order against a label vector `cur`
//! (PIs 0, everything else −∞). Each step must satisfy its rule's side
//! condition before its value is applied:
//!
//! * `fanin` — the claimed edge must exist with the claimed weight and
//!   `value ≤ cur(from) − P·weight` (edge inequality of Corollary 1);
//! * `no_cut` — no K-feasible cut of height ≤ `height` may exist in the
//!   replicated cone `F_v^{frt(v)}` under the current labels, and
//!   `value ≤ height + 1`;
//! * `weight_bump` — the cut-weight escape hatch: `height + P·w_min > P`
//!   must hold, no cut may exist when the cone is restricted to weight
//!   `w_min − 1`, and (consistency) one must exist at weight `w_min`.
//!
//! Lower bounds derived against *smaller* labels stay sound — cut
//! heights only grow as labels grow — so replay order equals recording
//! order is sufficient, not just necessary. The log certifies
//! infeasibility when some node's label exceeds `P`.

use std::collections::HashMap;
use std::collections::VecDeque;

use engine::JsonValue;
use netlist::{Circuit, NodeId};
use turbomap::WitnessStep;

use crate::model::{self, ParsedWitness};

/// Mirror of the mapper's −∞ sentinel (headroom for label arithmetic).
const NEG_INF: i64 = i64::MIN / 4;

/// Replicated-cone size cap; expansions beyond it make the check fail
/// as inconclusive rather than silently pass.
const MAX_EXPANDED: usize = 500_000;

/// Outcome of the witness portion of a check.
#[derive(Debug, Clone)]
pub enum WitnessVerdict {
    /// The derivation log replayed cleanly and refutes `phi_tested`.
    Verified {
        /// Steps replayed.
        steps: usize,
        /// Node whose label exceeded the refuted period.
        terminal_node: String,
        /// Its final label.
        terminal_value: i64,
    },
    /// The report carries no derivation (e.g. horizon-capped run).
    Unavailable {
        /// Reason recorded in the report.
        reason: String,
    },
}

/// Successful check result.
#[derive(Debug, Clone)]
pub struct CheckSummary {
    /// Witness outcome.
    pub witness: WitnessVerdict,
    /// Mapped nodes whose depth/slack entries were re-derived and matched.
    pub nodes_checked: usize,
    /// Length of the verified critical path.
    pub critical_path_len: usize,
    /// Whether a critical cycle was present and its arithmetic re-verified.
    pub cycle_checked: bool,
}

/// A replicated cone `F_v^{bound}`: nodes are `(source node, path
/// weight)` pairs, index 0 is the root `(v, 0)`.
struct Cone {
    nodes: Vec<(u32, u64)>,
    fanins: Vec<Vec<u32>>,
    is_leaf: Vec<bool>,
}

/// Min register weight of any PI→v path, by Dijkstra over the full
/// edge set. `None` = unreachable from the PIs.
fn checker_frt(c: &Circuit) -> Vec<Option<u64>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = c.num_nodes();
    let adj = c.weighted_adjacency();
    let mut dist: Vec<Option<u64>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    for &pi in c.inputs() {
        dist[pi.index()] = Some(0);
        heap.push(Reverse((0u64, pi.index())));
    }
    while let Some(Reverse((d, v))) = heap.pop() {
        if dist[v] != Some(d) {
            continue;
        }
        for &(t, w) in &adj[v] {
            let nd = d + w;
            if dist[t].is_none_or(|old| nd < old) {
                dist[t] = Some(nd);
                heap.push(Reverse((nd, t)));
            }
        }
    }
    dist
}

/// Expands `F_root^{bound}` breadth-first over `(node, weight)` pairs.
fn expand_cone(c: &Circuit, root: NodeId, bound: u64) -> Result<Cone, String> {
    let mut index: HashMap<(u32, u64), usize> = HashMap::new();
    let mut nodes = vec![(root.0, 0u64)];
    let mut is_leaf = vec![false];
    let mut fanins: Vec<Vec<u32>> = vec![Vec::new()];
    index.insert((root.0, 0), 0);
    let mut i = 0;
    while i < nodes.len() {
        if nodes.len() > MAX_EXPANDED {
            return Err(format!(
                "cone of {} exceeds the {MAX_EXPANDED}-node expansion cap",
                c.node(root).name()
            ));
        }
        let (v, w) = nodes[i];
        if !is_leaf[i] {
            for &e in c.node(NodeId(v)).fanin() {
                let edge = c.edge(e);
                let cw = w + edge.weight() as u64;
                let u = edge.from();
                let leaf = !c.node(u).is_gate() || cw > bound;
                let idx = *index.entry((u.0, cw)).or_insert_with(|| {
                    nodes.push((u.0, cw));
                    is_leaf.push(leaf);
                    fanins.push(Vec::new());
                    nodes.len() - 1
                });
                fanins[i].push(idx as u32);
            }
        }
        i += 1;
    }
    Ok(Cone {
        nodes,
        fanins,
        is_leaf,
    })
}

/// Whether a K-feasible cut of height ≤ `height` exists in the cone
/// restricted to path weight ≤ `w_bound`, under the labels `cur`.
///
/// Node-split max-flow: node `i ≠ root` gets capacity 1 when its value
/// `cur(node) − P·weight + 1 ≤ height` (it may sit in the cut) and ∞
/// otherwise; structural arcs are ∞; the source feeds every effective
/// leaf (`is_leaf` or weight > `w_bound`). A cut exists iff max flow
/// stays ≤ K, so augmentation stops after K+1 paths.
fn cut_exists(cone: &Cone, cur: &[i64], phi: i64, height: i64, w_bound: u64, k: usize) -> bool {
    let n = cone.nodes.len();
    let inf = (k + 2) as i64;
    // Graph nodes: in(i) = 2i, out(i) = 2i+1, source = 2n; sink = in(0).
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); 2 * n + 1];
    let mut eto: Vec<usize> = Vec::new();
    let mut ecap: Vec<i64> = Vec::new();
    let mut add = |adj: &mut Vec<Vec<usize>>, from: usize, to: usize, cap: i64| {
        adj[from].push(eto.len());
        eto.push(to);
        ecap.push(cap);
        adj[to].push(eto.len());
        eto.push(from);
        ecap.push(0);
    };
    let effective_leaf = |i: usize| cone.is_leaf[i] || cone.nodes[i].1 > w_bound;
    for i in 0..n {
        let (node, weight) = cone.nodes[i];
        if i != 0 {
            let value = cur[node as usize] - phi * weight as i64 + 1;
            let cap = if value <= height { 1 } else { inf };
            add(&mut adj, 2 * i, 2 * i + 1, cap);
        }
        if effective_leaf(i) {
            add(&mut adj, 2 * n, 2 * i, inf);
        } else {
            for &j in &cone.fanins[i] {
                add(&mut adj, 2 * j as usize + 1, 2 * i, inf);
            }
        }
    }
    let source = 2 * n;
    let sink = 0usize;
    let mut flow = 0i64;
    let mut prev = vec![usize::MAX; 2 * n + 1];
    while flow <= k as i64 {
        // BFS for an augmenting path in the residual graph.
        prev.iter_mut().for_each(|p| *p = usize::MAX);
        let mut queue = VecDeque::new();
        queue.push_back(source);
        prev[source] = usize::MAX - 1;
        let mut reached = false;
        while let Some(v) = queue.pop_front() {
            if v == sink {
                reached = true;
                break;
            }
            for &e in &adj[v] {
                let t = eto[e];
                if ecap[e] > 0 && prev[t] == usize::MAX {
                    prev[t] = e;
                    queue.push_back(t);
                }
            }
        }
        if !reached {
            return true; // max flow ≤ K — a K-feasible cut exists
        }
        // Bottleneck and augment.
        let mut bottleneck = i64::MAX;
        let mut v = sink;
        while v != source {
            let e = prev[v];
            bottleneck = bottleneck.min(ecap[e]);
            v = eto[e ^ 1];
        }
        let mut v = sink;
        while v != source {
            let e = prev[v];
            ecap[e] -= bottleneck;
            ecap[e ^ 1] += bottleneck;
            v = eto[e ^ 1];
        }
        flow += bottleneck;
    }
    false // flow exceeded K — every cut is wider than K
}

/// Replays a derivation log against the bounded source network.
struct Replay<'a> {
    c: &'a Circuit,
    phi: i64,
    k: usize,
    frt: Vec<Option<u64>>,
    cur: Vec<i64>,
    cones: HashMap<u32, Cone>,
}

impl<'a> Replay<'a> {
    fn new(c: &'a Circuit, phi: u64, k: usize) -> Replay<'a> {
        let mut cur = vec![NEG_INF; c.num_nodes()];
        for &pi in c.inputs() {
            cur[pi.index()] = 0;
        }
        Replay {
            c,
            phi: phi as i64,
            k,
            frt: checker_frt(c),
            cur,
            cones: HashMap::new(),
        }
    }

    fn cone(&mut self, node: NodeId) -> Result<(&Cone, u64), String> {
        let frt = self.frt[node.index()].ok_or_else(|| {
            format!(
                "{}: cut rule on a node unreachable from the PIs",
                self.c.node(node).name()
            )
        })?;
        if !self.cones.contains_key(&node.0) {
            let cone = expand_cone(self.c, node, frt)?;
            self.cones.insert(node.0, cone);
        }
        Ok((&self.cones[&node.0], frt))
    }

    fn check_step(&mut self, idx: usize, step: &WitnessStep) -> Result<(), String> {
        let n = self.c.num_nodes();
        let fail = |msg: String| -> Result<(), String> { Err(format!("step {idx}: {msg}")) };
        let node = step.node();
        if node.index() >= n {
            return fail(format!("node id {} out of range", node.0));
        }
        if self.c.node(node).is_input() {
            return fail("derivation step targets a primary input".into());
        }
        match *step {
            WitnessStep::Fanin {
                node,
                from,
                weight,
                value,
            } => {
                if from.index() >= n {
                    return fail(format!("fanin id {} out of range", from.0));
                }
                let exists = self.c.node(node).fanin().iter().any(|&e| {
                    let edge = self.c.edge(e);
                    edge.from() == from && edge.weight() as u64 == weight
                });
                if !exists {
                    return fail(format!(
                        "no edge {} -> {} with weight {weight}",
                        self.c.node(from).name(),
                        self.c.node(node).name()
                    ));
                }
                if self.cur[from.index()] <= NEG_INF {
                    return fail(format!(
                        "derives from unreached node {}",
                        self.c.node(from).name()
                    ));
                }
                let bound = self.cur[from.index()] - self.phi * weight as i64;
                if value > bound {
                    return fail(format!(
                        "fanin value {value} exceeds l^s(from) − P·w = {bound}"
                    ));
                }
            }
            WitnessStep::NoCut {
                node,
                height,
                value,
            } => {
                if !self.c.node(node).is_gate() {
                    return fail("cut rule on a non-gate".into());
                }
                if value > height + 1 {
                    return fail(format!(
                        "no_cut value {value} exceeds height+1 = {}",
                        height + 1
                    ));
                }
                let phi = self.phi;
                let k = self.k;
                let cur = std::mem::take(&mut self.cur);
                let result = {
                    let (cone, frt) = match self.cone(node) {
                        Ok(c) => c,
                        Err(e) => {
                            self.cur = cur;
                            return fail(e);
                        }
                    };
                    cut_exists(cone, &cur, phi, height, frt, k)
                };
                self.cur = cur;
                if result {
                    return fail(format!(
                        "{}: a K-feasible cut of height ≤ {height} exists at the full frt bound",
                        self.c.node(node).name()
                    ));
                }
            }
            WitnessStep::WeightBump {
                node,
                height,
                w_min,
                value,
            } => {
                if !self.c.node(node).is_gate() {
                    return fail("cut rule on a non-gate".into());
                }
                if value > height + 1 {
                    return fail(format!(
                        "weight_bump value {value} exceeds height+1 = {}",
                        height + 1
                    ));
                }
                if height + self.phi * w_min as i64 <= self.phi {
                    return fail(format!(
                        "weight_bump precondition fails: {height} + P·{w_min} ≤ P = {}",
                        self.phi
                    ));
                }
                let phi = self.phi;
                let k = self.k;
                let cur = std::mem::take(&mut self.cur);
                let result = (|| -> Result<(), String> {
                    let (cone, frt) = self.cone(node)?;
                    if w_min > frt {
                        return Err(format!("claimed w_min {w_min} exceeds frt bound {frt}"));
                    }
                    if w_min > 0 && cut_exists(cone, &cur, phi, height, w_min - 1, k) {
                        return Err(format!(
                            "a K-feasible cut of height ≤ {height} exists below weight {w_min}"
                        ));
                    }
                    if !cut_exists(cone, &cur, phi, height, w_min, k) {
                        return Err(format!(
                            "no K-feasible cut of height ≤ {height} exists at weight {w_min}"
                        ));
                    }
                    Ok(())
                })();
                self.cur = cur;
                if let Err(e) = result {
                    return fail(format!("{}: {e}", self.c.node(node).name()));
                }
            }
        }
        if step.value() > self.cur[node.index()] {
            self.cur[node.index()] = step.value();
        }
        Ok(())
    }

    fn run(&mut self, steps: &[WitnessStep]) -> Result<(String, i64), String> {
        if steps.is_empty() {
            return Err("derivation witness has no steps".into());
        }
        for (idx, step) in steps.iter().enumerate() {
            self.check_step(idx, step)?;
        }
        let last = steps.last().expect("non-empty");
        let terminal = self.cur[last.node().index()];
        if terminal <= self.phi {
            return Err(format!(
                "derivation terminates at l^s = {terminal} ≤ P = {}; nothing is refuted",
                self.phi
            ));
        }
        Ok((self.c.node(last.node()).name().to_string(), terminal))
    }
}

/// Arrival times over the zero-weight subgraph by an own Kahn topo sort
/// (mirrors the unit-delay clock-period recurrence).
fn arrivals(c: &Circuit) -> Result<(Vec<u64>, u64), String> {
    let n = c.num_nodes();
    let mut indeg = vec![0usize; n];
    let mut zero_out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in c.edge_ids() {
        let edge = c.edge(e);
        if edge.weight() == 0 {
            indeg[edge.to().index()] += 1;
            zero_out[edge.from().index()].push(edge.to().index());
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut arrival = vec![0u64; n];
    let mut period = 0u64;
    let mut seen = 0usize;
    while let Some(v) = queue.pop_front() {
        seen += 1;
        let node = c.node(NodeId(v as u32));
        let mut best = 0u64;
        for &e in node.fanin() {
            let edge = c.edge(e);
            if edge.weight() == 0 {
                best = best.max(arrival[edge.from().index()]);
            }
        }
        arrival[v] = best + node.delay();
        period = period.max(arrival[v]);
        for &t in &zero_out[v] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push_back(t);
            }
        }
    }
    if seen != n {
        return Err("mapped network has a combinational cycle".into());
    }
    Ok((arrival, period))
}

fn field_u64(doc: &JsonValue, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("document missing `{key}`"))
}

/// Re-derives the timing section and compares it entry by entry.
fn check_timing(doc: &JsonValue, mapped: &Circuit) -> Result<(usize, usize, u64), String> {
    let timing = doc.get("timing").ok_or("document missing `timing`")?;
    let period = field_u64(timing, "period")?;
    let (arrival, computed) = arrivals(mapped)?;
    if period != computed {
        return Err(format!(
            "reported period {period} differs from recomputed {computed}"
        ));
    }
    let entries = timing
        .get("nodes")
        .and_then(JsonValue::as_array)
        .ok_or("timing missing `nodes`")?;
    let gates: Vec<NodeId> = mapped.gate_ids().collect();
    if entries.len() != gates.len() {
        return Err(format!(
            "timing lists {} nodes but the mapped network has {} gates",
            entries.len(),
            gates.len()
        ));
    }
    let mut min_slack = u64::MAX;
    for (entry, &gate) in entries.iter().zip(&gates) {
        let id = field_u64(entry, "id")?;
        if id != gate.0 as u64 {
            return Err(format!(
                "timing node id {id} out of order (expected {})",
                gate.0
            ));
        }
        let name = entry
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or("timing node missing `name`")?;
        if name != mapped.node(gate).name() {
            return Err(format!("timing node {id} name mismatch"));
        }
        let depth = field_u64(entry, "depth")?;
        let slack = field_u64(entry, "slack")?;
        if depth != arrival[gate.index()] {
            return Err(format!(
                "{name}: reported depth {depth} differs from recomputed {}",
                arrival[gate.index()]
            ));
        }
        if slack != period - depth {
            return Err(format!(
                "{name}: reported slack {slack} differs from period − depth = {}",
                period - depth
            ));
        }
        min_slack = min_slack.min(slack);
    }
    if !gates.is_empty() && min_slack != 0 {
        return Err(format!(
            "no critical node: minimum slack is {min_slack}, expected 0"
        ));
    }
    // Critical path: consecutive zero-weight edges ending at period depth.
    let path = timing
        .get("critical_path")
        .and_then(JsonValue::as_array)
        .ok_or("timing missing `critical_path`")?;
    let mut path_ids = Vec::new();
    for v in path {
        let name = v.as_str().ok_or("non-string critical-path entry")?;
        let id = mapped
            .find(name)
            .ok_or_else(|| format!("critical-path node `{name}` not in the mapped network"))?;
        path_ids.push(id);
    }
    if period > 0 {
        let last = *path_ids
            .last()
            .ok_or("critical path empty despite a non-zero period")?;
        if arrival[last.index()] != period {
            return Err(format!(
                "critical path ends at depth {}, period is {period}",
                arrival[last.index()]
            ));
        }
    }
    for pair in path_ids.windows(2) {
        let connected = mapped.node(pair[0]).fanout().iter().any(|&e| {
            let edge = mapped.edge(e);
            edge.to() == pair[1] && edge.weight() == 0
        });
        if !connected {
            return Err(format!(
                "critical path hop {} -> {} has no zero-weight edge",
                mapped.node(pair[0]).name(),
                mapped.node(pair[1]).name()
            ));
        }
    }
    Ok((gates.len(), path_ids.len(), period))
}

/// Re-verifies the critical-cycle arithmetic: the cycle must close over
/// real edges and satisfy `d(C) > P·w(C)` (taking the lightest edge per
/// hop, the selection most favorable to the claim and therefore sound).
fn check_cycle(witness: &ParsedWitness, mapped: &Circuit) -> Result<bool, String> {
    if witness.critical_cycle.is_empty() {
        return Ok(false);
    }
    let ids: Vec<NodeId> = witness
        .critical_cycle
        .iter()
        .map(|name| {
            mapped
                .find(name)
                .ok_or_else(|| format!("cycle node `{name}` not in the mapped network"))
        })
        .collect::<Result<_, _>>()?;
    let mut delay = 0u64;
    let mut weight = 0u64;
    for (i, &a) in ids.iter().enumerate() {
        let b = ids[(i + 1) % ids.len()];
        let hop = mapped
            .node(a)
            .fanout()
            .iter()
            .filter(|&&e| mapped.edge(e).to() == b)
            .map(|&e| mapped.edge(e).weight() as u64)
            .min()
            .ok_or_else(|| {
                format!(
                    "cycle hop {} -> {} has no edge",
                    mapped.node(a).name(),
                    mapped.node(b).name()
                )
            })?;
        weight += hop;
        delay += mapped.node(b).delay();
    }
    if delay != witness.cycle_delay || weight != witness.cycle_weight {
        return Err(format!(
            "cycle totals d = {delay}, w = {weight} differ from reported d = {}, w = {}",
            witness.cycle_delay, witness.cycle_weight
        ));
    }
    if delay <= witness.phi_tested * weight {
        return Err(format!(
            "cycle is not critical at P = {}: d = {delay} ≤ P·w = {}",
            witness.phi_tested,
            witness.phi_tested * weight
        ));
    }
    Ok(true)
}

/// Verifies a rendered `turbomap-report/v2` document against the source
/// and mapped networks.
///
/// # Errors
///
/// Any arithmetic mismatch, malformed section, or derivation step whose
/// side condition fails is returned as a message naming the offending
/// step or node.
pub fn verify(doc: &JsonValue, source: &Circuit, mapped: &Circuit) -> Result<CheckSummary, String> {
    match doc.get("schema").and_then(JsonValue::as_str) {
        Some(model::SCHEMA) => {}
        Some(other) => return Err(format!("unexpected schema `{other}`")),
        None => return Err("document missing `schema`".into()),
    }
    let k = field_u64(doc, "k")? as usize;
    let (nodes_checked, critical_path_len, period) = check_timing(doc, mapped)?;
    let witness = model::parse_witness(doc)?;
    let verdict = match &witness.steps {
        Some(steps) => {
            if period == 0 {
                return Err("derivation witness on a zero-period network".into());
            }
            if witness.phi_tested != period - 1 {
                return Err(format!(
                    "witness refutes {} but the mapped period is {period}; expected {}",
                    witness.phi_tested,
                    period - 1
                ));
            }
            let bounded = turbomap::prepare(source, k)
                .map_err(|e| format!("preparing the bounded network failed: {e}"))?;
            let mut replay = Replay::new(&bounded, witness.phi_tested, k);
            let (terminal_node, terminal_value) = replay.run(steps)?;
            WitnessVerdict::Verified {
                steps: steps.len(),
                terminal_node,
                terminal_value,
            }
        }
        None => WitnessVerdict::Unavailable {
            reason: witness.reason.clone(),
        },
    };
    let cycle_checked = check_cycle(&witness, mapped)?;
    Ok(CheckSummary {
        witness: verdict,
        nodes_checked,
        critical_path_len,
        cycle_checked,
    })
}
