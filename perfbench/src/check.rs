//! The output checker. Every distinct (design, script) result the daemon
//! served is re-derived apart from the serving path:
//!
//! - the script is re-run in a fresh, unpooled session, and the netlist it
//!   leaves must match the lowered RTL output for output under seeded
//!   random stimulus;
//! - the served QoR must equal `sta::qor` recomputed from scratch on that
//!   netlist, bit for bit, and the served `ok` flag the re-run's;
//! - customized scripts must keep the design's clock period and carry no
//!   lint error, and repeated (design, seed, request) triples must return
//!   byte-identical scripts.
//!
//! [`self_test`] shows that each kind of check catches a planted fault.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use chatls::baseline_script;
use chatls::llm::respects_fixed_period;
use chatls_designs::GeneratedDesign;
use chatls_synth::{MappedDesign, QorReport, SessionBuilder, SessionTemplate};
use chatls_verilog::netlist::{GateKind, Netlist, Simulator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Clock cycles of random stimulus per equivalence check.
pub const SIM_CYCLES: usize = 32;

/// A served result: what the daemon answered for one script on one design.
#[derive(Debug, Clone)]
pub struct Served {
    pub qor: QorReport,
    /// The `ok` flag, when the endpoint reports one (`/v1/eval`).
    pub ok: Option<bool>,
    /// Set for `/v1/customize` results: lint errors left in the script.
    pub final_lint_errors: Option<u64>,
}

/// The verdict on one distinct (design, script).
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The re-run's validity flag.
    pub ok: bool,
    /// The QoR recomputed from scratch.
    pub qor: QorReport,
    /// Every check that failed, described.
    pub faults: Vec<String>,
}

/// True when two QoR reports agree bit for bit on every figure.
pub fn same_qor(a: &QorReport, b: &QorReport) -> bool {
    let bits = |q: &QorReport| {
        (q.wns.to_bits(), q.cps.to_bits(), q.tns.to_bits(), q.area.to_bits(), q.leakage.to_bits())
    };
    bits(a) == bits(b) && a.cells == b.cells && a.registers == b.registers
}

/// Port name → width, for a netlist's `port` / `port[i]` bit names.
fn ports(bits: &[(String, u32)]) -> BTreeMap<String, usize> {
    let mut out = BTreeMap::new();
    for (name, _) in bits {
        let (base, idx) = match name.split_once('[') {
            Some((b, rest)) => {
                (b.to_string(), rest.trim_end_matches(']').parse::<usize>().unwrap_or(0))
            }
            None => (name.clone(), 0),
        };
        let w = out.entry(base).or_insert(0);
        *w = (*w).max(idx + 1);
    }
    out
}

/// The lowered RTL's simulated behaviour under seeded random stimulus:
/// every output bit, every cycle. Candidates replay the same stimulus and
/// must match it bit for bit.
pub struct Reference {
    inputs: BTreeMap<String, usize>,
    outputs: Vec<String>,
    seed: u64,
    trace: Vec<Vec<Option<u8>>>,
}

impl Reference {
    /// Simulates `rtl` for [`SIM_CYCLES`] clocks. Reset-like ports are
    /// asserted in the first cycle only; every other input bit is random.
    pub fn new(rtl: &Netlist, seed: u64) -> Result<Self, String> {
        let mut reference = Reference {
            inputs: ports(&rtl.inputs),
            outputs: rtl.outputs.iter().map(|(n, _)| n.clone()).collect(),
            seed,
            trace: Vec::new(),
        };
        let mut trace = Vec::with_capacity(SIM_CYCLES);
        reference.simulate(rtl, |_, outs| {
            trace.push(outs);
            Ok(())
        })?;
        reference.trace = trace;
        Ok(reference)
    }

    /// Drives `netlist` with the reference stimulus and hands each cycle's
    /// output bits (read after the clock's combinational evaluation) to
    /// `on_cycle`.
    fn simulate(
        &self,
        netlist: &Netlist,
        mut on_cycle: impl FnMut(usize, Vec<Option<u8>>) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut sim = Simulator::new(netlist);
        for cycle in 0..SIM_CYCLES {
            for (port, width) in &self.inputs {
                let reset = port.contains("rst") || port.contains("reset");
                let bits: Vec<u8> = (0..*width)
                    .map(|_| if reset { (cycle == 0) as u8 } else { rng.gen_range(0..2u8) })
                    .collect();
                sim.set_input(port, &bits);
            }
            sim.step()?;
            on_cycle(cycle, self.outputs.iter().map(|o| sim.output(o)).collect())?;
        }
        Ok(())
    }

    /// `Ok` when `candidate` has the reference's ports and matches its
    /// outputs on every cycle.
    pub fn check(&self, candidate: &Netlist) -> Result<(), String> {
        if ports(&candidate.inputs) != self.inputs {
            return Err("input ports differ from the RTL".into());
        }
        self.simulate(candidate, |cycle, outs| {
            match self.outputs.iter().zip(&outs).zip(&self.trace[cycle]).find(|((_, a), b)| a != b)
            {
                Some(((name, _), _)) => {
                    Err(format!("output {name} differs from the RTL at cycle {cycle}"))
                }
                None => Ok(()),
            }
        })
    }
}

/// The synthesized netlist with dead gates dropped, ready to simulate.
fn live_netlist(design: &MappedDesign) -> Netlist {
    let mut d = design.clone();
    d.compact();
    d.netlist
}

/// What the checker derives once per design.
struct DesignState {
    reference: Reference,
    template: SessionTemplate,
}

impl DesignState {
    /// Lowers `design`'s RTL, simulates it under stimulus from `seed`, and
    /// maps it into a template of the checker's own.
    fn new(design: &GeneratedDesign, seed: u64) -> Result<Self, String> {
        let rtl = design.netlist();
        let reference = Reference::new(&rtl, seed)?;
        let template = SessionBuilder::new(rtl, chatls_liberty::nangate45())
            .template()
            .map_err(|e| format!("{}: mapping failed: {e}", design.name))?;
        Ok(DesignState { reference, template })
    }
}

/// The checker's findings for one design.
#[derive(Default)]
pub struct DesignCheck {
    /// The baseline script's QoR, recomputed from scratch.
    pub baseline: Option<QorReport>,
    /// Verdict per distinct script.
    pub verdicts: HashMap<String, Verdict>,
}

/// Re-runs `script` in a fresh session stamped from the checker's own
/// template and returns (ok, from-scratch QoR, live netlist).
fn rerun(template: &SessionTemplate, script: &str) -> (bool, QorReport, Netlist) {
    let mut session = template.session();
    let result = session.run_script(script);
    let scratch =
        chatls_synth::sta::qor(session.design(), session.library(), session.constraints());
    (result.ok(), scratch, live_netlist(session.design()))
}

/// Checks one served result against its re-run.
fn verdict(
    design: &GeneratedDesign,
    state: &DesignState,
    script: &str,
    served: &Served,
) -> Verdict {
    let (ok, qor, netlist) = rerun(&state.template, script);
    let mut faults = Vec::new();
    if let Err(e) = state.reference.check(&netlist) {
        faults.push(format!("not equivalent to the RTL: {e}"));
    }
    if !same_qor(&served.qor, &qor) {
        faults.push(format!("served QoR {:?} != from-scratch {:?}", served.qor, qor));
    }
    if served.ok.is_some_and(|s| s != ok) {
        faults.push(format!("served ok={:?}, re-run ok={ok}", served.ok));
    }
    if let Some(errors) = served.final_lint_errors {
        faults.extend(customized_script_faults(script, design.default_period, errors));
    }
    Verdict { ok, qor, faults }
}

/// The properties a customized script must have: the design's clock
/// period, and no lint error (as served and as re-linted here).
pub fn customized_script_faults(script: &str, period: f64, served_errors: u64) -> Vec<String> {
    let mut faults = Vec::new();
    if !respects_fixed_period(script, period) {
        faults.push(format!("script changed the clock period {period}"));
    }
    let relinted = chatls_lint::lint_script(script).error_count();
    if served_errors != 0 || relinted != 0 {
        faults.push(format!("lint errors: served {served_errors}, re-linted {relinted}"));
    }
    faults
}

/// Checks every served result and recomputes each design's baseline, on
/// `threads` threads. Work is split per script, largest designs first;
/// each design's template and reference trace are built once, by
/// whichever thread needs them first.
pub fn check_all(
    designs: &[GeneratedDesign],
    results: &HashMap<usize, Vec<(String, Served)>>,
    seed: u64,
    threads: usize,
) -> Result<HashMap<usize, DesignCheck>, String> {
    let mut work: Vec<(usize, Option<usize>)> = Vec::new();
    for (&d, scripts) in results {
        work.push((d, None));
        work.extend((0..scripts.len()).map(|i| (d, Some(i))));
    }
    work.sort_by_key(|(d, i)| (std::cmp::Reverse(designs[*d].source.len()), *d, *i));
    let states: HashMap<usize, OnceLock<Result<DesignState, String>>> =
        results.keys().map(|d| (*d, OnceLock::new())).collect();
    let next = AtomicUsize::new(0);
    let out: Mutex<HashMap<usize, DesignCheck>> = Mutex::new(HashMap::new());
    let error = Mutex::new(None);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| {
                while let Some(&(d, item)) = work.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let design = &designs[d];
                    let state =
                        states[&d].get_or_init(|| DesignState::new(design, seed ^ d as u64));
                    let state = match state {
                        Ok(s) => s,
                        Err(e) => {
                            *error.lock().unwrap() = Some(e.clone());
                            continue;
                        }
                    };
                    match item {
                        None => {
                            let (_, qor, _) =
                                rerun(&state.template, &baseline_script(design.default_period));
                            out.lock().unwrap().entry(d).or_default().baseline = Some(qor);
                        }
                        Some(i) => {
                            let (script, served) = &results[&d][i];
                            let v = verdict(design, state, script, served);
                            out.lock()
                                .unwrap()
                                .entry(d)
                                .or_default()
                                .verdicts
                                .insert(script.clone(), v);
                        }
                    }
                }
            });
        }
    });
    match error.into_inner().unwrap() {
        Some(e) => Err(e),
        None => Ok(out.into_inner().unwrap()),
    }
}

/// Plants one fault of each kind the checker looks for and confirms it
/// is caught: a gate whose function changes (AND↔OR and kin, trying
/// seeded gates until one is observable) against the RTL reference, and a
/// served result with one flipped QoR bit and a customized script with a
/// changed clock period, both through [`verdict`]. The probe is the
/// design's baseline script served as a customized one. Returns a one-line
/// summary.
pub fn self_test(design: &GeneratedDesign, seed: u64) -> Result<String, String> {
    let state = DesignState::new(design, seed)?;
    let script = baseline_script(design.default_period);
    let script = script.as_str();
    let (_, qor, good) = rerun(&state.template, script);
    let served = |qor: QorReport| Served { qor, ok: None, final_lint_errors: Some(0) };
    let clean = verdict(design, &state, script, &served(qor.clone()));
    if !clean.faults.is_empty() {
        return Err(format!("self-test baseline: {}", clean.faults.join("; ")));
    }

    let mut rng = StdRng::seed_from_u64(seed);
    let flippable: Vec<usize> =
        (0..good.gates.len()).filter(|&g| flipped(good.gates[g].kind).is_some()).collect();
    let mut tried = 0;
    let caught = (0..64).find(|_| {
        tried += 1;
        let mut bad = good.clone();
        let g = flippable[rng.gen_range(0..flippable.len())];
        bad.gates[g].kind = flipped(bad.gates[g].kind).expect("flippable");
        state.reference.check(&bad).is_err()
    });
    if caught.is_none() {
        return Err(format!("self-test: no gate-function change caught in {tried} tries"));
    }

    let mut bad_qor = qor.clone();
    bad_qor.area = f64::from_bits(bad_qor.area.to_bits() ^ 1);
    let v = verdict(design, &state, script, &served(bad_qor));
    if !v.faults.iter().any(|f| f.starts_with("served QoR")) {
        return Err("self-test: a flipped QoR bit went unnoticed".into());
    }

    let period = design.default_period;
    let stretched =
        script.replace(&format!("-period {period:.3}"), &format!("-period {:.3}", period * 1.1));
    if stretched == script {
        return Err("self-test: the script sets no clock period to change".into());
    }
    let (_, stretched_qor, _) = rerun(&state.template, &stretched);
    let v = verdict(design, &state, &stretched, &served(stretched_qor));
    if !v.faults.iter().any(|f| f.contains("clock period")) {
        return Err("self-test: a changed clock period went unnoticed".into());
    }
    Ok(format!(
        "self-test on {}: gate change caught after {tried} tries, QoR bit flip caught, period change caught",
        design.name
    ))
}

fn flipped(kind: GateKind) -> Option<GateKind> {
    Some(match kind {
        GateKind::And => GateKind::Or,
        GateKind::Or => GateKind::And,
        GateKind::Nand => GateKind::Nor,
        GateKind::Nor => GateKind::Nand,
        GateKind::Xor => GateKind::Xnor,
        GateKind::Xnor => GateKind::Xor,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_self_test_catches_every_planted_fault() {
        let design = chatls_designs::by_name("aes").unwrap();
        let summary = self_test(&design, 7).unwrap();
        assert!(summary.contains("caught"), "{summary}");
    }
}
