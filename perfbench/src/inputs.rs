//! Seeded workload inputs. Every generator here is a pure function of the
//! workload, the `--seed` value and the pass index, so one seed always
//! yields the same request bodies in the same order.

use std::collections::HashSet;

use chatls::database::strategy_library;
use chatls::llm::{OneShot, OneShotProfile, TaskContext, TimingSummary};
use chatls::{baseline_script, canonicalize_script, detect_traits, Generator};
use chatls_designs::GeneratedDesign;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The user requests `warm_repeat` draws from. The first is the daemon's
/// default request.
pub const REQUESTS: &[&str] = &[
    "optimize timing at the fixed clock",
    "reduce area without losing timing",
    "fix high fanout nets and meet the clock",
    "tighten timing, trade 5% area",
];

/// Seed of the fixed `warm_repeat` triple set.
const TRIPLE_SEED: u64 = 0x7121_9135;

/// Permutations of the triple set per `warm_repeat` pass.
pub const WARM_ROUNDS: usize = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Inline Verilog, every request a never-seen design copy.
    ColdRtl,
    /// Catalog names from a primed triple set: every request is warm.
    WarmRepeat,
    /// Batches of candidate scripts on warm catalog designs.
    EvalSweep,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cold_rtl" => Some(Self::ColdRtl),
            "warm_repeat" => Some(Self::WarmRepeat),
            "eval_sweep" => Some(Self::EvalSweep),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::ColdRtl => "cold_rtl",
            Self::WarmRepeat => "warm_repeat",
            Self::EvalSweep => "eval_sweep",
        }
    }

    /// The tail percentile reported as `latency_tail_ms`, chosen so a
    /// run of [`Workload::min_passes`] passes leaves at least ten samples
    /// beyond it.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Self::ColdRtl | Self::EvalSweep => 0.85,
            // Warm latency is set by the daemon's 5 ms accept poll: a
            // request waits for the poll's phase, and past one poll period
            // for a second one. Above p90 the value follows that phase and
            // the host's stalls: over ten seeds p98 spread 0.36 and p95
            // 0.26 of the median.
            Self::WarmRepeat => 0.9,
        }
    }

    /// Closed-loop clients for the timed window, given the daemon's
    /// workers. `eval_sweep` uses one: each batch already fans out over
    /// every core through `ExecPool`, and with two clients the overlap of
    /// two batches' fan-outs changed from run to run, moving throughput
    /// and CPU per request by a third on identical inputs.
    pub fn clients(self, workers: usize) -> usize {
        match self {
            Self::EvalSweep => 1,
            Self::ColdRtl | Self::WarmRepeat => workers,
        }
    }

    /// Fewest whole passes a run makes, whatever `--seconds` says.
    pub fn min_passes(self) -> usize {
        match self {
            // 4 × 21 = 84 requests: 12 beyond the 85th percentile.
            Self::ColdRtl | Self::EvalSweep => 4,
            // 5 × 16 × 14 = 1120 requests: 112 beyond the 90th.
            Self::WarmRepeat => 5,
        }
    }

    fn tag(self) -> u64 {
        match self {
            Self::ColdRtl => 0xC01D,
            Self::WarmRepeat => 0x3A53,
            Self::EvalSweep => 0xE7A1,
        }
    }
}

/// How an `eval_sweep` candidate relates to the QorCache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Never evaluated in this run: a cache miss, synthesized.
    Fresh,
    /// Byte-identical to a script primed at set-up.
    Repeat,
    /// Textually new but equivalent by construction (comments, report
    /// commands, indentation) to the design's primed script of this index.
    Variant(usize),
}

/// One request of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `POST /v1/customize`.
    Customize { design: usize, seed: u64, request: String, body: String },
    /// `POST /v1/eval`.
    Eval { design: usize, scripts: Vec<(String, Kind)>, body: String },
}

impl Item {
    pub fn path(&self) -> &'static str {
        match self {
            Item::Customize { .. } => "/v1/customize",
            Item::Eval { .. } => "/v1/eval",
        }
    }

    pub fn body(&self) -> &str {
        match self {
            Item::Customize { body, .. } | Item::Eval { body, .. } => body,
        }
    }

    pub fn design(&self) -> usize {
        match self {
            Item::Customize { design, .. } | Item::Eval { design, .. } => *design,
        }
    }
}

/// The 14 catalog designs: the 7 benchmarks, then the 7 database designs.
pub fn catalog() -> Vec<GeneratedDesign> {
    let mut all = chatls_designs::benchmarks();
    all.extend(chatls_designs::database_designs());
    all
}

/// A design copy whose fingerprint is new but whose netlist is the
/// original's: the source gains a trailing comment.
pub fn uniquified(design: &GeneratedDesign, tag: &str) -> GeneratedDesign {
    let mut copy = design.clone();
    copy.source.push_str(&format!("\n// perfbench copy {tag}\n"));
    copy
}

fn json(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The workload's request stream.
pub struct Plan {
    pub workload: Workload,
    seed: u64,
    pub designs: Vec<GeneratedDesign>,
    /// `warm_repeat`: one (seed, request) per design.
    triples: Vec<(u64, String)>,
    /// `eval_sweep`: generator contexts per design.
    tasks: Vec<TaskContext>,
    /// `eval_sweep`: the scripts primed per design at set-up.
    primed: Vec<Vec<String>>,
    /// `eval_sweep`: canonical keys already used, per design.
    used: HashSet<(usize, String)>,
    /// `eval_sweep`: running count that makes fresh candidates distinct.
    fresh_count: u64,
    /// Gates of each design's lowered netlist.
    gates: Vec<usize>,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, designs: Vec<GeneratedDesign>) -> Self {
        let mut plan = Plan {
            workload,
            seed,
            designs,
            triples: Vec::new(),
            tasks: Vec::new(),
            primed: Vec::new(),
            used: HashSet::new(),
            fresh_count: 0,
            gates: Vec::new(),
        };
        match workload {
            Workload::ColdRtl => {
                plan.gates = plan.designs.iter().map(|d| d.netlist().gates.len()).collect()
            }
            Workload::WarmRepeat => {
                // The triple set is fixed, drawn from its own seed, so every
                // run serves the same scripts; `--seed` orders the requests.
                let mut rng = StdRng::seed_from_u64(TRIPLE_SEED);
                plan.triples = (0..plan.designs.len())
                    .map(|_| {
                        (rng.gen_range(0..64u64), REQUESTS[rng.gen_range(0..REQUESTS.len())].into())
                    })
                    .collect();
            }
            Workload::EvalSweep => {
                let strategies = strategy_library();
                for (d, design) in plan.designs.iter().enumerate() {
                    let period = design.default_period;
                    let pick = &strategies[1 + d % (strategies.len() - 1)];
                    let scripts = vec![baseline_script(period), pick.script(period)];
                    for s in &scripts {
                        plan.used.insert((d, canonicalize_script(s)));
                    }
                    plan.primed.push(scripts);
                }
                plan.tasks = plan.designs.iter().map(generator_task).collect();
                plan.gates = plan.tasks.iter().map(|t| t.traits.gates).collect();
            }
        }
        plan
    }

    fn rng(&self, pass: usize) -> StdRng {
        StdRng::seed_from_u64(
            self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ self.workload.tag()
                ^ (pass as u64) << 20,
        )
    }

    /// Requests sent during set-up, before timing starts: after them every
    /// `warm_repeat` request and every non-fresh `eval_sweep` script hits
    /// the daemon's caches.
    pub fn priming(&self) -> Vec<Item> {
        match self.workload {
            Workload::ColdRtl => Vec::new(),
            Workload::WarmRepeat => (0..self.designs.len()).map(|d| self.warm_item(d)).collect(),
            Workload::EvalSweep => (0..self.designs.len())
                .map(|d| {
                    let scripts =
                        self.primed[d].iter().map(|s| (s.clone(), Kind::Repeat)).collect();
                    self.eval_item(d, scripts)
                })
                .collect(),
        }
    }

    /// The requests of pass `pass`. Passes must be drawn in order
    /// (0, 1, …): `eval_sweep` keeps fresh candidates distinct across the
    /// whole run.
    pub fn pass(&mut self, pass: usize) -> Vec<Item> {
        let mut rng = self.rng(pass);
        let n = self.designs.len();
        match self.workload {
            Workload::ColdRtl => {
                let mut order = self.pass_designs();
                shuffle(&mut order, &mut rng);
                order
                    .into_iter()
                    .enumerate()
                    .map(|(i, d)| {
                        let design = &self.designs[d];
                        let copy = uniquified(design, &format!("{}.{pass}.{i}", self.seed));
                        let body = format!(
                            "{{\"verilog\": {}, \"top\": {}, \"period\": {}, \"seed\": 0, \"request\": {}}}",
                            json(&copy.source),
                            json(&copy.top),
                            design.default_period,
                            json(REQUESTS[0])
                        );
                        Item::Customize { design: d, seed: 0, request: REQUESTS[0].into(), body }
                    })
                    .collect()
            }
            Workload::WarmRepeat => {
                let mut items = Vec::with_capacity(WARM_ROUNDS * n);
                for _ in 0..WARM_ROUNDS {
                    let mut order: Vec<usize> = (0..n).collect();
                    shuffle(&mut order, &mut rng);
                    items.extend(order.into_iter().map(|d| self.warm_item(d)));
                }
                items
            }
            Workload::EvalSweep => {
                let mut order = self.pass_designs();
                shuffle(&mut order, &mut rng);
                let mut seen = vec![0; n];
                order
                    .into_iter()
                    .map(|d| {
                        // The k-th batch of design `d` in this pass.
                        let draw = 2 * pass + seen[d];
                        seen[d] += 1;
                        let source = rng.gen_range(0..2);
                        let mut scripts = vec![
                            (self.fresh_strategy(d, draw), Kind::Fresh),
                            (self.fresh_llm(d, draw), Kind::Fresh),
                            (self.primed[d][rng.gen_range(0..2)].clone(), Kind::Repeat),
                            (variant_of(&self.primed[d][source], &mut rng), Kind::Variant(source)),
                        ];
                        shuffle(&mut scripts, &mut rng);
                        self.eval_item(d, scripts)
                    })
                    .collect()
            }
        }
    }

    fn warm_item(&self, d: usize) -> Item {
        let (seed, request) = &self.triples[d];
        let body = format!(
            "{{\"design\": {}, \"seed\": {seed}, \"request\": {}}}",
            json(&self.designs[d].name),
            json(request)
        );
        Item::Customize { design: d, seed: *seed, request: request.clone(), body }
    }

    fn eval_item(&self, d: usize, scripts: Vec<(String, Kind)>) -> Item {
        let list: Vec<String> = scripts.iter().map(|(s, _)| json(s)).collect();
        let body = format!(
            "{{\"design\": {}, \"lenient\": true, \"scripts\": [{}]}}",
            json(&self.designs[d].name),
            list.join(", ")
        );
        Item::Eval { design: d, scripts, body }
    }

    /// The designs one `cold_rtl` or `eval_sweep` pass covers: every
    /// catalog design once, and those below the catalog's median gate count
    /// a second time. Per-request latency clusters by design size (six
    /// small designs, fft, three mid-size, four large); with 14 equal
    /// shares the median falls on the gap between the small and the
    /// mid-size cluster and jumps between runs. Sending the small half
    /// twice puts the median inside the small cluster and the tail
    /// percentile inside the large one.
    fn pass_designs(&self) -> Vec<usize> {
        let mut sizes = self.gates.clone();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        let n = self.designs.len();
        (0..n).chain((0..n).filter(|&d| self.gates[d] < median)).collect()
    }

    /// The primed script `i` of design `d`.
    pub fn primed(&self, d: usize, i: usize) -> &str {
        &self.primed[d][i]
    }

    /// An expert-library strategy for design `d`, made distinct from every
    /// script used so far in the run. The strategy rotates with the draw
    /// index, not the seed, so every run synthesizes the same strategy mix.
    fn fresh_strategy(&mut self, d: usize, draw: usize) -> String {
        let strategies = strategy_library();
        let script =
            strategies[(d + draw) % strategies.len()].script(self.designs[d].default_period);
        self.make_fresh(d, &script)
    }

    /// A simulated GPT-4o (even draws) or Claude-3.5 (odd draws) draft for
    /// design `d`, with generator seed `draw`, made distinct from every
    /// script used so far. Like the strategy rotation, the draw does not
    /// depend on `--seed`, so every run synthesizes the same candidates;
    /// the seed orders them and picks the cache hits.
    fn fresh_llm(&mut self, d: usize, draw: usize) -> String {
        let profile = if draw.is_multiple_of(2) {
            OneShotProfile::gpt_like()
        } else {
            OneShotProfile::claude_like()
        };
        let script = OneShot::new(profile).generate(&self.tasks[d], draw as u64);
        self.make_fresh(d, &script)
    }

    /// Sets a never-used critical range right before the first compile, so
    /// the script is a new synthesis job with a new cache key.
    fn make_fresh(&mut self, d: usize, script: &str) -> String {
        loop {
            self.fresh_count += 1;
            let knob = format!("set_critical_range {:.4}", 0.05 + 0.0001 * self.fresh_count as f64);
            let mut lines: Vec<&str> = script.lines().collect();
            let at = lines
                .iter()
                .position(|l| {
                    matches!(l.split_whitespace().next(), Some("compile" | "compile_ultra"))
                })
                .unwrap_or(lines.len());
            lines.insert(at, &knob);
            let fresh = lines.join("\n") + "\n";
            if self.used.insert((d, canonicalize_script(&fresh))) {
                return fresh;
            }
        }
    }
}

/// The context the simulated one-shot generators draft from. They read
/// the design name, clock period and netlist traits only, so the baseline
/// report is left empty rather than paying a synthesis run.
fn generator_task(design: &GeneratedDesign) -> TaskContext {
    TaskContext {
        design_name: design.name.clone(),
        period: design.default_period,
        baseline_script: baseline_script(design.default_period),
        user_request: REQUESTS[0].into(),
        traits: detect_traits(&design.netlist()),
        baseline: TimingSummary::default(),
        timing_lint: Vec::new(),
    }
}

/// A rewrite of `script` that canonicalizes to the same cache key: a
/// comment, plus a report command or re-indented line when the key allows.
pub fn variant_of(script: &str, rng: &mut StdRng) -> String {
    let lines: Vec<String> = script.lines().map(str::to_string).collect();
    let note = format!("# equivalent rewrite {}", rng.gen_range(0..1_000_000u32));
    let mut base = lines.clone();
    base.insert(rng.gen_range(0..=base.len()), note);
    let mut fancy = base.clone();
    if rng.gen_bool(0.5) {
        let report = ["report_timing", "report_area", "report_qor"][rng.gen_range(0..3)];
        fancy.insert(rng.gen_range(1..=fancy.len()), report.to_string());
    } else {
        let i = rng.gen_range(0..fancy.len());
        fancy[i] = format!("  {}", fancy[i]);
    }
    let key = canonicalize_script(script);
    [fancy, base]
        .into_iter()
        .map(|l| l.join("\n") + "\n")
        .find(|v| canonicalize_script(v) == key)
        .expect("a comment never changes the cache key")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(workload: Workload, seed: u64) -> Vec<String> {
        let mut plan = Plan::new(workload, seed, catalog());
        let mut out: Vec<String> = plan.priming().iter().map(|i| i.body().to_string()).collect();
        for p in 0..2 {
            out.extend(plan.pass(p).iter().map(|i| i.body().to_string()));
        }
        out
    }

    #[test]
    fn inputs_are_deterministic_per_seed() {
        for w in [Workload::ColdRtl, Workload::WarmRepeat, Workload::EvalSweep] {
            assert_eq!(bodies(w, 11), bodies(w, 11), "{}", w.name());
            assert_ne!(bodies(w, 11), bodies(w, 12), "{}", w.name());
        }
    }

    #[test]
    fn uniquified_rtl_changes_the_fingerprint_not_the_netlist() {
        for design in catalog() {
            let copy = uniquified(&design, "1.2.3");
            assert_ne!(
                chatls::design_fingerprint(&design),
                chatls::design_fingerprint(&copy),
                "{}",
                design.name
            );
            assert!(design.netlist() == copy.netlist(), "{}: lowered netlist changed", design.name);
        }
    }

    #[test]
    fn eval_batches_have_fixed_shares_and_distinct_fresh_keys() {
        let mut plan = Plan::new(Workload::EvalSweep, 5, catalog());
        let mut keys = HashSet::new();
        for p in 0..3 {
            for item in plan.pass(p) {
                let Item::Eval { design, scripts, .. } = item else { panic!("eval item") };
                let count = |k: Kind| scripts.iter().filter(|(_, kind)| *kind == k).count();
                let variants =
                    scripts.iter().filter(|(_, kind)| matches!(kind, Kind::Variant(_))).count();
                assert_eq!((count(Kind::Fresh), count(Kind::Repeat), variants), (2, 1, 1));
                for (s, kind) in &scripts {
                    let key = canonicalize_script(s);
                    let primed = plan.primed[design].iter().any(|p| canonicalize_script(p) == key);
                    match kind {
                        Kind::Fresh => assert!(keys.insert((design, key)) && !primed),
                        Kind::Repeat => assert!(primed),
                        Kind::Variant(i) => {
                            assert_eq!(canonicalize_script(plan.primed(design, *i)), key)
                        }
                    }
                }
            }
        }
    }
}
