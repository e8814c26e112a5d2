//! The `turbomap-report/v2` document model.
//!
//! A [`Report`] is the explainable artifact of one TurboMap-frt run: the
//! Φ−1 infeasibility witness (certificate side) plus per-node timing
//! attribution (observability side). [`Report::to_json`] renders the
//! deterministic JSON document — insertion-ordered keys, node lists in id
//! order, nothing that varies between runs — and
//! [`Report::render_table`] the human-readable summary.

use engine::JsonValue;
use netlist::NodeId;
use turbomap::WitnessStep;

/// Schema tag of the JSON document.
pub const SCHEMA: &str = "turbomap-report/v2";

/// Rows shown per node table in the human rendering (the JSON always
/// carries every node).
const TABLE_ROWS: usize = 40;

/// Whether a derivation witness is attached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WitnessKind {
    /// A full replayable derivation log is attached.
    Derivation,
    /// No witness; the payload is the reason (e.g. the `frt` horizon was
    /// capped, so the log would not replay against true cone arithmetic).
    Unavailable(String),
}

/// The Φ-optimality certificate of a report.
#[derive(Debug, Clone)]
pub struct WitnessReport {
    /// The refuted period (the mapped network's period minus one).
    pub phi_tested: u64,
    /// Derivation log attached, or why not.
    pub kind: WitnessKind,
    /// Ordered derivation steps (empty when unavailable).
    pub steps: Vec<WitnessStep>,
    /// `(id, name)` of every node a step references, in id order.
    pub node_names: Vec<(u32, String)>,
    /// Critical cycle on the **mapped** network at `phi_tested` (node
    /// names in forward edge order), empty when the refutation is
    /// path-shaped rather than cycle-shaped.
    pub critical_cycle: Vec<String>,
    /// Total gate delay around the critical cycle.
    pub cycle_delay: u64,
    /// Total register weight around the critical cycle
    /// (`cycle_delay > phi_tested · cycle_weight` certifies it).
    pub cycle_weight: u64,
}

/// Timing attribution of one mapped LUT/PO.
#[derive(Debug, Clone)]
pub struct NodeTiming {
    /// Node id in the mapped network.
    pub id: u32,
    /// Node name in the mapped network.
    pub name: String,
    /// Combinational depth (LUT levels from the nearest register/PI).
    pub depth: u64,
    /// `period − depth` ≥ 0; 0 exactly on critical nodes.
    pub slack: u64,
}

/// Label attribution of one source gate (the prepared network the Φ
/// search ran on).
#[derive(Debug, Clone)]
pub struct LabelRow {
    /// Node id in the prepared source network.
    pub id: u32,
    /// Node name.
    pub name: String,
    /// Converged `l^s(v)` lower bound.
    pub ls: i64,
    /// Converged `r(v)` lower bound.
    pub r: u64,
    /// Corollary 1 margin `Φ − (l^s + Φ·r)` ≥ 0.
    pub label_slack: i64,
}

/// Retiming / initial-state summary of the emitted mapping.
#[derive(Debug, Clone)]
pub struct RetimingSummary {
    /// Forward unit register moves of the final retiming.
    pub forward_moves: u64,
    /// Backward unit register moves (0 for TurboMap-frt by construction).
    pub backward_moves: u64,
    /// The paper's `⋆`: initial state erased to `X`.
    pub initial_state_lost: bool,
    /// Initial values inconsistent under register sharing.
    pub sharing_conflict: bool,
}

/// One full mapping report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Source circuit name.
    pub name: String,
    /// LUT input bound.
    pub k: usize,
    /// The period reported by the mapper (`Φ`).
    pub phi: u64,
    /// The Φ the label system converged at (equals `phi` unless the
    /// generated network beat the simple-solution bound).
    pub phi_labels: u64,
    /// LUT count of the mapped network.
    pub luts: usize,
    /// FF count of the mapped network.
    pub ffs: usize,
    /// The paper's `⋆` outcome.
    pub star: bool,
    /// `(Φ, sweeps)` per probed period of the binary search.
    pub probes: Vec<(u64, usize)>,
    /// The Φ-optimality certificate.
    pub witness: WitnessReport,
    /// Clock period of the mapped network (max depth; equals `phi`).
    pub period: u64,
    /// Per-node timing, mapped gates in id order.
    pub nodes: Vec<NodeTiming>,
    /// One critical path, source to sink, node names.
    pub critical_path: Vec<String>,
    /// `(slack, count)` over `nodes`, ascending slack.
    pub slack_hist: Vec<(u64, u64)>,
    /// Per-gate label attribution, source gates in id order.
    pub labels: Vec<LabelRow>,
    /// Retiming / initial-state summary.
    pub retiming: RetimingSummary,
}

fn int(v: i64) -> JsonValue {
    JsonValue::Int(v)
}

fn uint(v: u64) -> JsonValue {
    JsonValue::UInt(v)
}

fn step_json(step: &WitnessStep) -> JsonValue {
    let mut pairs: Vec<(&str, JsonValue)> = vec![
        ("rule", JsonValue::str(step.rule())),
        ("node", uint(step.node().0 as u64)),
    ];
    match step {
        WitnessStep::Fanin { from, weight, .. } => {
            pairs.push(("from", uint(from.0 as u64)));
            pairs.push(("weight", uint(*weight)));
        }
        WitnessStep::NoCut { height, .. } => {
            pairs.push(("height", int(*height)));
        }
        WitnessStep::WeightBump { height, w_min, .. } => {
            pairs.push(("height", int(*height)));
            pairs.push(("w_min", uint(*w_min)));
        }
    }
    pairs.push(("value", int(step.value())));
    JsonValue::object(pairs)
}

/// Parses one witness step object back (the checker's input path).
fn step_from_json(v: &JsonValue) -> Result<WitnessStep, String> {
    let rule = v
        .get("rule")
        .and_then(JsonValue::as_str)
        .ok_or("step missing `rule`")?;
    let field_u64 = |key: &str| -> Result<u64, String> {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("step missing `{key}`"))
    };
    let field_i64 = |key: &str| -> Result<i64, String> {
        match v.get(key) {
            Some(JsonValue::Int(i)) => Ok(*i),
            Some(JsonValue::UInt(u)) if *u <= i64::MAX as u64 => Ok(*u as i64),
            _ => Err(format!("step missing `{key}`")),
        }
    };
    let node = NodeId(field_u64("node")? as u32);
    let value = field_i64("value")?;
    match rule {
        "fanin" => Ok(WitnessStep::Fanin {
            node,
            from: NodeId(field_u64("from")? as u32),
            weight: field_u64("weight")?,
            value,
        }),
        "no_cut" => Ok(WitnessStep::NoCut {
            node,
            height: field_i64("height")?,
            value,
        }),
        "weight_bump" => Ok(WitnessStep::WeightBump {
            node,
            height: field_i64("height")?,
            w_min: field_u64("w_min")?,
            value,
        }),
        other => Err(format!("unknown witness rule `{other}`")),
    }
}

/// A witness parsed back out of a rendered document — what the
/// independent checker actually replays, so that the verification also
/// covers the serialization round trip.
#[derive(Debug, Clone)]
pub struct ParsedWitness {
    /// The refuted period.
    pub phi_tested: u64,
    /// `Some(steps)` for a derivation witness, `None` with the reason in
    /// `reason` otherwise.
    pub steps: Option<Vec<WitnessStep>>,
    /// Unavailability reason (derivations leave it empty).
    pub reason: String,
    /// Critical-cycle node names (possibly empty).
    pub critical_cycle: Vec<String>,
    /// Claimed total delay around the cycle.
    pub cycle_delay: u64,
    /// Claimed total register weight around the cycle.
    pub cycle_weight: u64,
}

/// Extracts the witness section from a rendered `turbomap-report/v2`
/// document.
pub fn parse_witness(doc: &JsonValue) -> Result<ParsedWitness, String> {
    let w = doc.get("witness").ok_or("document missing `witness`")?;
    let phi_tested = w
        .get("phi_tested")
        .and_then(JsonValue::as_u64)
        .ok_or("witness missing `phi_tested`")?;
    let kind = w
        .get("kind")
        .and_then(JsonValue::as_str)
        .ok_or("witness missing `kind`")?;
    let critical_cycle: Vec<String> = match w.get("critical_cycle").and_then(JsonValue::as_array) {
        Some(items) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| "non-string cycle entry".to_string())
            })
            .collect::<Result<_, _>>()?,
        None => Vec::new(),
    };
    let cycle_delay = w
        .get("cycle_delay")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let cycle_weight = w
        .get("cycle_weight")
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let (steps, reason) = match kind {
        "derivation" => {
            let items = w
                .get("steps")
                .and_then(JsonValue::as_array)
                .ok_or("derivation witness missing `steps`")?;
            let steps = items
                .iter()
                .map(step_from_json)
                .collect::<Result<Vec<_>, _>>()?;
            (Some(steps), String::new())
        }
        "unavailable" => {
            let reason = w
                .get("reason")
                .and_then(JsonValue::as_str)
                .unwrap_or("unspecified")
                .to_string();
            (None, reason)
        }
        other => return Err(format!("unknown witness kind `{other}`")),
    };
    Ok(ParsedWitness {
        phi_tested,
        steps,
        reason,
        critical_cycle,
        cycle_delay,
        cycle_weight,
    })
}

impl Report {
    /// Renders the deterministic `turbomap-report/v2` document.
    pub fn to_json(&self) -> JsonValue {
        let witness = {
            let mut pairs: Vec<(&str, JsonValue)> = vec![
                (
                    "kind",
                    JsonValue::str(match &self.witness.kind {
                        WitnessKind::Derivation => "derivation",
                        WitnessKind::Unavailable(_) => "unavailable",
                    }),
                ),
                (
                    "claim",
                    JsonValue::str(format!(
                        "no simple FRT mapping solution exists at period {}",
                        self.witness.phi_tested
                    )),
                ),
                ("phi_tested", uint(self.witness.phi_tested)),
            ];
            match &self.witness.kind {
                WitnessKind::Derivation => {
                    pairs.push(("step_count", uint(self.witness.steps.len() as u64)));
                    pairs.push((
                        "steps",
                        JsonValue::Array(self.witness.steps.iter().map(step_json).collect()),
                    ));
                    pairs.push((
                        "node_names",
                        JsonValue::Array(
                            self.witness
                                .node_names
                                .iter()
                                .map(|(id, name)| {
                                    JsonValue::Array(vec![
                                        uint(*id as u64),
                                        JsonValue::str(name.clone()),
                                    ])
                                })
                                .collect(),
                        ),
                    ));
                }
                WitnessKind::Unavailable(reason) => {
                    pairs.push(("reason", JsonValue::str(reason.clone())));
                }
            }
            if !self.witness.critical_cycle.is_empty() {
                pairs.push((
                    "critical_cycle",
                    JsonValue::Array(
                        self.witness
                            .critical_cycle
                            .iter()
                            .map(|n| JsonValue::str(n.clone()))
                            .collect(),
                    ),
                ));
                pairs.push(("cycle_delay", uint(self.witness.cycle_delay)));
                pairs.push(("cycle_weight", uint(self.witness.cycle_weight)));
            }
            JsonValue::object(pairs)
        };
        let timing = JsonValue::object(vec![
            ("period", uint(self.period)),
            (
                "critical_path",
                JsonValue::Array(
                    self.critical_path
                        .iter()
                        .map(|n| JsonValue::str(n.clone()))
                        .collect(),
                ),
            ),
            (
                "slack_histogram",
                JsonValue::Array(
                    self.slack_hist
                        .iter()
                        .map(|&(s, c)| JsonValue::Array(vec![uint(s), uint(c)]))
                        .collect(),
                ),
            ),
            (
                "nodes",
                JsonValue::Array(
                    self.nodes
                        .iter()
                        .map(|n| {
                            JsonValue::object(vec![
                                ("id", uint(n.id as u64)),
                                ("name", JsonValue::str(n.name.clone())),
                                ("depth", uint(n.depth)),
                                ("slack", uint(n.slack)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let labels = JsonValue::object(vec![
            ("phi", uint(self.phi_labels)),
            (
                "nodes",
                JsonValue::Array(
                    self.labels
                        .iter()
                        .map(|l| {
                            JsonValue::object(vec![
                                ("id", uint(l.id as u64)),
                                ("name", JsonValue::str(l.name.clone())),
                                ("ls", int(l.ls)),
                                ("r", uint(l.r)),
                                ("label_slack", int(l.label_slack)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let retiming = JsonValue::object(vec![
            ("forward_moves", uint(self.retiming.forward_moves)),
            ("backward_moves", uint(self.retiming.backward_moves)),
            (
                "initial_state_lost",
                JsonValue::Bool(self.retiming.initial_state_lost),
            ),
            (
                "sharing_conflict",
                JsonValue::Bool(self.retiming.sharing_conflict),
            ),
        ]);
        JsonValue::object(vec![
            ("schema", JsonValue::str(SCHEMA)),
            ("name", JsonValue::str(self.name.clone())),
            ("k", uint(self.k as u64)),
            ("phi", uint(self.phi)),
            ("luts", uint(self.luts as u64)),
            ("ffs", uint(self.ffs as u64)),
            ("star", JsonValue::Bool(self.star)),
            (
                "probes",
                JsonValue::Array(
                    self.probes
                        .iter()
                        .map(|&(p, s)| JsonValue::Array(vec![uint(p), uint(s as u64)]))
                        .collect(),
                ),
            ),
            ("witness", witness),
            ("timing", timing),
            ("labels", labels),
            ("retiming", retiming),
        ])
    }

    /// Renders the human-readable summary table.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {} · {} ==", SCHEMA, self.name);
        let _ = writeln!(
            out,
            "K = {}   Φ = {}   LUTs = {}   FFs = {}   star = {}",
            self.k,
            self.phi,
            self.luts,
            self.ffs,
            if self.star { "yes" } else { "no" }
        );
        let probes: Vec<String> = self
            .probes
            .iter()
            .map(|(p, s)| format!("Φ={p}:{s}"))
            .collect();
        let _ = writeln!(out, "probes (Φ:sweeps): {}", probes.join("  "));
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "-- Φ-optimality (period {} refuted) --",
            self.witness.phi_tested
        );
        match &self.witness.kind {
            WitnessKind::Derivation => {
                let terminal = self.witness.steps.last();
                let name = terminal
                    .map(|s| self.node_name(s.node().0))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "witness: derivation, {} steps; terminal {} reaches l^s = {} > {}",
                    self.witness.steps.len(),
                    name,
                    terminal.map(WitnessStep::value).unwrap_or_default(),
                    self.witness.phi_tested,
                );
            }
            WitnessKind::Unavailable(reason) => {
                let _ = writeln!(out, "witness: unavailable ({reason})");
            }
        }
        if !self.witness.critical_cycle.is_empty() {
            let _ = writeln!(
                out,
                "critical cycle ({} nodes, d = {} > {}·w = {}·{}): {}",
                self.witness.critical_cycle.len(),
                self.witness.cycle_delay,
                self.witness.phi_tested,
                self.witness.phi_tested,
                self.witness.cycle_weight,
                self.witness.critical_cycle.join(" -> "),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "-- timing attribution (mapped network, period {}) --",
            self.period
        );
        let _ = writeln!(out, "critical path: {}", self.critical_path.join(" -> "));
        let hist: Vec<String> = self
            .slack_hist
            .iter()
            .map(|(s, c)| format!("{s}:{c}"))
            .collect();
        let _ = writeln!(out, "slack histogram (slack:count): {}", hist.join("  "));
        let _ = writeln!(out, "{:>6}  {:>6}  node", "slack", "depth");
        for n in self.nodes.iter().take(TABLE_ROWS) {
            let _ = writeln!(out, "{:>6}  {:>6}  {}", n.slack, n.depth, n.name);
        }
        if self.nodes.len() > TABLE_ROWS {
            let _ = writeln!(out, "  (... {} more)", self.nodes.len() - TABLE_ROWS);
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "-- label attribution (source network, Φ = {}) --",
            self.phi_labels
        );
        let _ = writeln!(out, "{:>5}  {:>3}  {:>6}  node", "l^s", "r", "slack");
        for l in self.labels.iter().take(TABLE_ROWS) {
            let _ = writeln!(
                out,
                "{:>5}  {:>3}  {:>6}  {}",
                l.ls, l.r, l.label_slack, l.name
            );
        }
        if self.labels.len() > TABLE_ROWS {
            let _ = writeln!(out, "  (... {} more)", self.labels.len() - TABLE_ROWS);
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "-- retiming & initial state --");
        let _ = writeln!(
            out,
            "moves: {} forward, {} backward; initial state {}",
            self.retiming.forward_moves,
            self.retiming.backward_moves,
            if self.retiming.initial_state_lost {
                "LOST (⋆)"
            } else if self.retiming.sharing_conflict {
                "sharing conflict (⋆)"
            } else {
                "computed by simulation"
            }
        );
        out
    }

    fn node_name(&self, id: u32) -> String {
        self.witness
            .node_names
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, n)| n.clone())
            .unwrap_or_else(|| format!("#{id}"))
    }
}
