//! The traced run's layer replay. After the untraced timed window, one
//! pass of the workload's inputs is replayed in this process, single
//! threaded, calling each layer's public function in the order a served
//! request crosses it. Every call runs inside a span (name, start, end,
//! parent, request id) kept in memory and written out at the end; self
//! times are derived from the span tree.
//!
//! Two kinds of span roots exist:
//! - `request`: the calls one served request makes, in order. Their time
//!   is what `trace.attributed_ratio` sets against the client latency.
//! - `probe`: decompositions measured on the same inputs — the pipeline
//!   stages inside `ChatLs::try_customize`, the logic-opt steps inside
//!   `compile` (on a copy of the mapped design), a from-scratch STA. They
//!   overlap request spans and are never summed with them.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use chatls::llm::{OneShot, OneShotProfile, TaskContext};
use chatls::pipeline::prepare_task_in;
use chatls::{
    build_circuit_graph, canonicalize_script, design_fingerprint, ChatLs, ChatLsService, QorCache,
    SynthExpert, SynthRag,
};
use chatls_designs::GeneratedDesign;
use chatls_exec::CancelToken;
use chatls_serve::{AppHandler, Request};
use chatls_synth::passes::{self, Effort};
use chatls_synth::{Constraints, SessionBuilder, SessionTemplate, TimingGraph, TimingView};

use crate::inputs::{Item, Plan};

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    pub design: usize,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    design: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            design: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            design: self.design,
            request: self.request,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(self.spans.len() - 1);
    }

    pub fn end(&mut self) {
        let i = self.stack.pop().expect("end without begin");
        self.spans[i].end_ns = self.now();
    }

    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Writes every span, with its self time, as one JSON document.
    pub fn write(
        &self,
        path: &Path,
        workload: &str,
        designs: &[GeneratedDesign],
    ) -> Result<(), String> {
        let own = self.self_ns();
        let mut out = format!("{{\"workload\": \"{workload}\", \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"design\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{}\n",
                s.name,
                designs[s.design].name,
                s.request,
                s.start_ns,
                s.end_ns,
                own[i],
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }

    fn mean_ms(&self, name: &str, design: Option<usize>) -> f64 {
        let hits: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && design.is_none_or(|d| s.design == d))
            .map(Span::ns)
            .collect();
        if hits.is_empty() {
            0.0
        } else {
            hits.iter().sum::<u64>() as f64 / hits.len() as f64 / 1e6
        }
    }
}

/// What the logic-opt, compile and STA probes measured on one design.
#[derive(Default, Clone, Copy)]
struct SynthProbe {
    const_propagate_ms: f64,
    strash_ms: f64,
    absorb_inverters_ms: f64,
    removed: f64,
    compile_ms: f64,
    sta_ms: f64,
}

/// Per-design state the replay keeps between requests.
struct Prepared {
    template: SessionTemplate,
    tasks: HashMap<String, TaskContext>,
}

/// What a replay measured.
pub struct Replay {
    /// Per-layer figures by metric name: timings are mean milliseconds
    /// per call, `0` for a layer the workload never calls.
    pub layers: Vec<(String, f64)>,
    /// Requests replayed.
    pub requests: usize,
    /// Their summed request-span time, in ms.
    pub request_ms: f64,
}

/// Replays `plan`'s first pass.
pub fn replay(plan: &mut Plan, tracer: &mut Tracer) -> Result<Replay, String> {
    let designs = plan.designs.clone();
    let db = chatls::ExpertDatabase::build(&chatls::DbConfig::quick());
    let svc = ChatLsService::new(db, 16);
    let cache = QorCache::new();
    let mut prepared: HashMap<usize, Prepared> = HashMap::new();
    let never = CancelToken::never();
    let post = |item: &Item| Request {
        method: "POST".into(),
        path: item.path().into(),
        body: item.body().as_bytes().to_vec(),
        ..Default::default()
    };
    // Prime the in-process service the way the daemon was primed, and the
    // request path's own cache and templates alongside it.
    for item in plan.priming() {
        let resp = svc.handle(&post(&item), &never);
        if resp.status != 200 {
            return Err(format!("replay priming answered {}", resp.status));
        }
        let d = item.design();
        let design = &designs[d];
        let entry = prepared.entry(d).or_insert_with(|| Prepared {
            template: chatls::session_template(design),
            tasks: HashMap::new(),
        });
        match &item {
            Item::Customize { request, .. } => {
                let task = prepare_task_in(design, request, &entry.template, &never)
                    .map_err(|_| "cancelled")?;
                entry.tasks.insert(request.clone(), task);
                let body = serde_json::parse_value(&String::from_utf8_lossy(&resp.body))
                    .map_err(|e| e.to_string())?;
                let script = body
                    .get("script")
                    .and_then(|s| s.as_str())
                    .ok_or("no script in priming answer")?;
                let fp = design_fingerprint(design);
                let value = QorCache::global()
                    .peek(fp, script)
                    .ok_or("primed script missing from cache")?;
                cache.insert(fp, script, value);
            }
            Item::Eval { scripts, .. } => {
                let fp = design_fingerprint(design);
                for (s, _) in scripts {
                    let value =
                        QorCache::global().peek(fp, s).ok_or("primed script missing from cache")?;
                    cache.insert(fp, s, value);
                }
            }
        }
    }
    let items = plan.pass(0);
    let mut request_ms = 0.0;
    let mut mapped_gates: Vec<f64> = Vec::new();
    let mut synth_runs: HashMap<usize, usize> = HashMap::new();
    for (r, item) in items.iter().enumerate() {
        let d = item.design();
        tracer.request = r as u64;
        tracer.design = d;
        tracer.time("serve.handle", || svc.handle(&post(item), &never));
        let root = tracer.spans.len();
        tracer.begin("request");
        match item {
            Item::Customize { seed, request, body, .. } if body.contains("\"verilog\"") => {
                // Inline RTL: validated in `resolve_design`, then parsed and
                // lowered again when the pool builds the template.
                let design = &designs[d];
                let copy = cold_copy(body, design)?;
                for _ in 0..2 {
                    let sf = tracer.time("verilog.parse", || chatls_verilog::parse(&copy.source));
                    let sf = sf.map_err(|e| e.to_string())?;
                    tracer
                        .time("verilog.lower", || chatls_verilog::lower_to_netlist(&sf, &copy.top))
                        .map_err(|e| e.to_string())?;
                }
                let netlist = copy.netlist();
                let template = tracer
                    .time("synth.map", || {
                        SessionBuilder::new(netlist, chatls_liberty::nangate45()).template()
                    })
                    .map_err(|e| e.to_string())?;
                mapped_gates.push(template.design().live_gates() as f64);
                let task = tracer
                    .time("core.prepare_task", || {
                        prepare_task_in(&copy, request, &template, &never)
                    })
                    .map_err(|_| "cancelled")?;
                let script = customize_path(tracer, &svc, &copy, &task, *seed, &template, &cache)?;
                tracer.end();
                *synth_runs.entry(d).or_default() += 2;
                pipeline_probes(tracer, &svc, &copy, &task, *seed, &script);
            }
            Item::Customize { seed, request, .. } => {
                let design = &designs[d];
                let entry = &prepared[&d];
                let task = entry.tasks[request].clone();
                let script =
                    customize_path(tracer, &svc, design, &task, *seed, &entry.template, &cache)?;
                tracer.end();
                pipeline_probes(tracer, &svc, design, &task, *seed, &script);
            }
            Item::Eval { scripts, .. } => {
                let design = &designs[d];
                let fp = design_fingerprint(design);
                let template = &prepared[&d].template;
                for (s, _) in scripts {
                    tracer.begin("eval.qorcache");
                    let mut ran = false;
                    cache.get_or_run(fp, s, || {
                        ran = true;
                        tracer.time("synth.run_script", || chatls::eval::run_script_in(template, s))
                    });
                    tracer.end();
                    if ran {
                        *synth_runs.entry(d).or_default() += 1;
                    }
                }
                tracer.end();
                tracer.begin("probe");
                for (s, _) in scripts {
                    tracer.time("eval.canonicalize", || canonicalize_script(s));
                }
                tracer.end();
            }
        }
        request_ms += tracer.spans[root].ns() as f64 / 1e6;
    }
    // Logic-opt, compile and STA probes, once per design that the request
    // path synthesized from its pristine mapped state.
    let mut probes: HashMap<usize, SynthProbe> = HashMap::new();
    for (&d, _) in synth_runs.iter().filter(|(_, n)| **n > 0) {
        tracer.design = d;
        tracer.request = u64::MAX;
        let template = match prepared.get(&d) {
            Some(p) => p.template.clone(),
            None => chatls::session_template(&designs[d]),
        };
        probes.insert(d, synth_probe(tracer, &template, designs[d].default_period));
    }
    let mut m: Vec<(String, f64)> = Vec::new();
    let ms = |t: &Tracer, name: &str| t.mean_ms(name, None);
    m.push(("verilog.parse_ms".into(), ms(tracer, "verilog.parse")));
    m.push(("verilog.lower_ms".into(), ms(tracer, "verilog.lower")));
    m.push(("synth.map_ms".into(), ms(tracer, "synth.map")));
    m.push(("synth.gates_mapped".into(), crate::stats::mean(&mapped_gates)));
    let total_runs: usize = synth_runs.values().sum();
    let weighted = |f: fn(&SynthProbe) -> f64| {
        if total_runs == 0 {
            return 0.0;
        }
        probes.iter().map(|(d, p)| f(p) * synth_runs[d] as f64).sum::<f64>() / total_runs as f64
    };
    m.push(("synth.const_propagate_ms".into(), weighted(|p| p.const_propagate_ms)));
    m.push(("synth.strash_ms".into(), weighted(|p| p.strash_ms)));
    m.push(("synth.absorb_inverters_ms".into(), weighted(|p| p.absorb_inverters_ms)));
    m.push(("synth.logic_opt_removed".into(), weighted(|p| p.removed)));
    m.push(("synth.compile_ms".into(), weighted(|p| p.compile_ms)));
    m.push(("synth.sta_ms".into(), weighted(|p| p.sta_ms)));
    m.push(("synth.run_script_ms".into(), ms(tracer, "synth.run_script")));
    for (d, design) in designs.iter().enumerate() {
        let strash = probes.get(&d).map_or(0.0, |p| p.strash_ms);
        m.push((format!("synth.strash_ms.{}", design.name), strash));
    }
    for (d, design) in designs.iter().enumerate() {
        let v = tracer.mean_ms("synth.run_script", Some(d));
        m.push((format!("synth.run_script_ms.{}", design.name), v));
    }
    m.push(("core.prepare_task_ms".into(), ms(tracer, "core.prepare_task")));
    m.push(("core.mentor.graph_ms".into(), ms(tracer, "core.mentor.graph")));
    m.push(("core.mentor.embed_ms".into(), ms(tracer, "core.mentor.embed")));
    m.push(("core.synthrag.retrieve_ms".into(), ms(tracer, "core.synthrag.retrieve")));
    m.push(("core.draft_ms".into(), ms(tracer, "core.draft")));
    m.push(("core.synthexpert.refine_ms".into(), ms(tracer, "core.synthexpert.refine")));
    m.push(("core.customize_ms".into(), ms(tracer, "core.customize")));
    m.push(("eval.canonicalize_ms".into(), ms(tracer, "eval.canonicalize")));
    m.push(("lint.lint_script_ms".into(), ms(tracer, "lint.lint_script")));
    m.push(("serve.handle_ms".into(), ms(tracer, "serve.handle")));
    Ok(Replay { layers: m, requests: items.len(), request_ms })
}

/// The inline design a cold request body carries, as the daemon resolves
/// it (name `inline:<top>`).
fn cold_copy(body: &str, design: &GeneratedDesign) -> Result<GeneratedDesign, String> {
    let v = serde_json::parse_value(body).map_err(|e| e.to_string())?;
    let source = v.get("verilog").and_then(|s| s.as_str()).ok_or("no verilog in body")?;
    Ok(GeneratedDesign {
        name: format!("inline:{}", design.top),
        category: chatls_designs::Category::VectorArithmetic,
        source: source.to_string(),
        top: design.top.clone(),
        modules: Vec::new(),
        default_period: design.default_period,
    })
}

/// The customize request path after the task context: the pipeline, then
/// the final synthesis through the QoR cache.
fn customize_path(
    tracer: &mut Tracer,
    svc: &ChatLsService,
    design: &GeneratedDesign,
    task: &TaskContext,
    seed: u64,
    template: &SessionTemplate,
    cache: &QorCache,
) -> Result<String, String> {
    let outcome = tracer
        .time("core.customize", || {
            ChatLs::new(svc.db()).try_customize(design, task, seed, &CancelToken::never())
        })
        .map_err(|_| "cancelled")?;
    let script = outcome.script().to_string();
    tracer.begin("eval.qorcache");
    cache.get_or_run(design_fingerprint(design), &script, || {
        tracer.time("synth.run_script", || chatls::eval::run_script_in(template, &script))
    });
    tracer.end();
    Ok(script)
}

/// The stages inside `ChatLs::try_customize`, called one by one on the
/// same inputs, plus the lint and canonicalization of the served script.
fn pipeline_probes(
    tracer: &mut Tracer,
    svc: &ChatLsService,
    design: &GeneratedDesign,
    task: &TaskContext,
    seed: u64,
    script: &str,
) {
    let db = svc.db();
    tracer.begin("probe");
    let graph = tracer.time("core.mentor.graph", || build_circuit_graph(design));
    let embedding = tracer.time("core.mentor.embed", || db.mentor().design_embedding(&graph));
    let similar =
        tracer.time("core.synthrag.retrieve", || SynthRag::new(db).similar_designs(&embedding, 3));
    let mut draft = tracer.time("core.draft", || {
        chatls::Generator::generate(&OneShot::new(OneShotProfile::gpt_like()), task, seed)
    });
    if let Some(best) = similar.first() {
        draft.push_str("\n# retrieved strategy from similar design\n");
        for line in best.script.lines() {
            draft.push_str(line);
            draft.push('\n');
        }
    }
    tracer.time("core.synthexpert.refine", || {
        SynthExpert::new(SynthRag::new(db)).refine(task, &draft)
    });
    tracer.time("lint.lint_script", || chatls_lint::lint_script(script));
    tracer.time("eval.canonicalize", || canonicalize_script(script));
    tracer.end();
}

/// Times the logic-opt steps `compile` starts with (constant propagation,
/// structural hashing, inverter absorption, hashing again) on a copy of
/// the mapped design, then a whole `compile` on another copy and a
/// from-scratch STA of its result, under the baseline script's
/// constraints.
fn synth_probe(tracer: &mut Tracer, template: &SessionTemplate, period: f64) -> SynthProbe {
    let library = template.library();
    let mut p = SynthProbe::default();
    tracer.begin("probe");
    let mut design = template.design().clone();
    let t = |tracer: &Tracer, from: usize| tracer.spans[from].ns() as f64 / 1e6;
    let i = tracer.spans.len();
    let s1 = tracer.time("synth.const_propagate", || passes::const_propagate(&mut design, library));
    p.const_propagate_ms = t(tracer, i);
    let i = tracer.spans.len();
    let s2 = tracer.time("synth.strash", || passes::strash(&mut design));
    p.strash_ms += t(tracer, i);
    let i = tracer.spans.len();
    let s3 =
        tracer.time("synth.absorb_inverters", || passes::absorb_inverters(&mut design, library));
    p.absorb_inverters_ms = t(tracer, i);
    let i = tracer.spans.len();
    let s4 = tracer.time("synth.strash", || passes::strash(&mut design));
    p.strash_ms += t(tracer, i);
    p.removed = (s1.removed + s2.removed + s3.removed + s4.removed) as f64;
    let constraints = Constraints {
        clock_period: period,
        wire_load: Some("5K_heavy_1k".into()),
        ..Constraints::default()
    };
    let mut design = template.design().clone();
    let mut graph = TimingGraph::new();
    let i = tracer.spans.len();
    tracer.time("synth.compile", || {
        let mut view = TimingView::new(&mut design, &mut graph, library, &constraints);
        passes::compile(&mut view, Effort::Medium)
    });
    p.compile_ms = t(tracer, i);
    let i = tracer.spans.len();
    tracer.time("synth.sta", || chatls_synth::sta::qor(&design, library, &constraints));
    p.sta_ms = t(tracer, i);
    tracer.end();
    p
}
