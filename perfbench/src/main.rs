//! `perfbench`: the ChatLS benchmark driver.
//!
//! ```text
//! perfbench --daemon <path to chatls> --workload <cold_rtl|warm_repeat|eval_sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Launches `chatls serve`, primes it for the workload, drives it with
//! closed-loop clients over loopback HTTP for whole passes of the
//! workload's inputs until `--seconds` have passed, stops it, checks every
//! distinct result apart from the serving path, and prints one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `run.py` builds both binaries and calls this.

mod check;
mod daemon;
mod inputs;
mod stats;
mod trace;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use chatls::llm::respects_fixed_period;
use chatls_synth::QorReport;

use check::Served;
use daemon::Daemon;
use inputs::{Item, Kind, Plan, Workload};

/// Set-up rounds (launch plus priming) per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

struct Args {
    daemon: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    Ok(Args {
        daemon: std::fs::canonicalize(value("--daemon")?).map_err(|e| format!("--daemon: {e}"))?,
        workload: Workload::parse(&workload).ok_or(format!("unknown workload {workload}"))?,
        seed: value("--seed")?.parse().map_err(|_| "--seed must be an integer")?,
        seconds: value("--seconds")?.parse().map_err(|_| "--seconds must be an integer")?,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    match parse_args().and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One timed request.
struct Outcome {
    /// Index into the run's item list.
    item: usize,
    status: u16,
    latency_ms: f64,
    body: String,
}

/// The request stream the clients share.
struct Feed<R> {
    items: Vec<Item>,
    next: usize,
    passes: usize,
    refill: R,
}

/// Sends `first`, then each further pass `refill(pass, elapsed)` yields,
/// over `clients` closed-loop clients: each client sends its next request
/// only once the previous answer is in, and clients draw from the shared
/// stream in order with no barrier between passes. Stops once `refill`
/// yields `None`. Returns the elapsed time (first send to last answer),
/// the items, the outcomes and the passes sent.
fn drive<R>(
    daemon: &Daemon,
    first: Vec<Item>,
    clients: usize,
    refill: R,
) -> (Duration, Vec<Item>, Vec<Outcome>, usize)
where
    R: FnMut(usize, Duration) -> Option<Vec<Item>> + Send,
{
    let feed = Mutex::new(Feed { items: first, next: 0, passes: 1, refill });
    let out = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| loop {
                let (i, path, body) = {
                    let mut f = feed.lock().unwrap();
                    if f.next == f.items.len() {
                        let pass = f.passes;
                        let Some(batch) = (f.refill)(pass, started.elapsed()) else { break };
                        f.items.extend(batch);
                        f.passes += 1;
                        continue;
                    }
                    let i = f.next;
                    f.next += 1;
                    (i, f.items[i].path(), f.items[i].body().to_string())
                };
                let sent = Instant::now();
                let answer = daemon.post(path, &body);
                let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                out.lock().unwrap().push(Outcome {
                    item: i,
                    status: answer.status,
                    latency_ms,
                    body: answer.body,
                });
            });
        }
    });
    let elapsed = started.elapsed();
    let feed = feed.into_inner().unwrap();
    (elapsed, feed.items, out.into_inner().unwrap(), feed.passes)
}

fn qor_of(v: &serde_json::Value) -> Option<QorReport> {
    let f = |k: &str| v.get(k).and_then(|x| x.as_f64());
    Some(QorReport {
        design: v.get("design")?.as_str()?.to_string(),
        wns: f("wns")?,
        cps: f("cps")?,
        tns: f("tns")?,
        area: f("area")?,
        leakage: f("leakage")?,
        cells: v.get("cells")?.as_u64()? as usize,
        registers: v.get("registers")?.as_u64()? as usize,
    })
}

/// The (script, served result) pairs one answer carries, or why it is
/// malformed.
fn parse_answer(plan: &Plan, item: &Item, body: &str) -> Result<Vec<(String, Served)>, String> {
    let v = serde_json::parse_value(body).map_err(|e| format!("bad JSON: {e}"))?;
    match item {
        Item::Customize { .. } => {
            let script = v.get("script").and_then(|s| s.as_str()).ok_or("no script")?;
            let qor = v.get("qor").and_then(qor_of).ok_or("no qor")?;
            let errors = v.get("lint").and_then(|l| l.get("final_errors")).and_then(|e| e.as_u64());
            let served =
                Served { qor, ok: None, final_lint_errors: Some(errors.ok_or("no lint stats")?) };
            Ok(vec![(script.to_string(), served)])
        }
        Item::Eval { design, scripts, .. } => {
            let results = v.get("results").and_then(|r| r.as_array()).ok_or("no results")?;
            if results.len() != scripts.len() {
                return Err(format!("{} results for {} scripts", results.len(), scripts.len()));
            }
            scripts
                .iter()
                .zip(results)
                .map(|((s, kind), r)| {
                    let qor = r.get("qor").and_then(qor_of).ok_or("no qor")?;
                    let ok = r.get("ok").and_then(|b| b.as_bool()).ok_or("no ok flag")?;
                    // A variant is equivalent to its primed source by
                    // construction, so it is checked as that script: its
                    // result must be the source's, bit for bit.
                    let script = match kind {
                        Kind::Variant(i) => plan.primed(*design, *i).to_string(),
                        _ => s.clone(),
                    };
                    Ok((script, Served { qor, ok: Some(ok), final_lint_errors: None }))
                })
                .collect()
        }
    }
}

fn metric_delta(before: &[(String, f64)], after: &[(String, f64)], name: &str) -> f64 {
    let get = |m: &[(String, f64)]| m.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
    get(after) - get(before)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run(args: Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let clients = args.workload.clients(threads);
    let out_dir = PathBuf::from(".bench_out");
    let daemon_dir = out_dir.join("daemon");
    std::fs::create_dir_all(&daemon_dir)
        .map_err(|e| format!("creating {}: {e}", daemon_dir.display()))?;
    // The daemon must build its quick in-memory database, never load one.
    let _ = std::fs::remove_file(daemon_dir.join("chatls_db.json"));
    let workload = args.workload;
    let mut plan = Plan::new(workload, args.seed, inputs::catalog());
    let designs = plan.designs.clone();

    // Set-up: launch and prime, several times, keeping the last daemon.
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let started = Instant::now();
        let d = Daemon::launch(&args.daemon, threads, &daemon_dir)?;
        let (_, _, primed, _) = drive(&d, plan.priming(), threads, |_, _| None);
        setups.push(started.elapsed().as_secs_f64());
        if let Some(o) = primed.iter().find(|o| o.status != 200) {
            return Err(format!("priming request answered {}: {}", o.status, o.body));
        }
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up round");
    let setup_s = stats::median(&setups);

    // The timed window: whole passes until --seconds have passed and
    // [`Workload::min_passes`] are done; the pass in progress when time is
    // up is finished.
    let before = daemon.metrics()?;
    let cpu_before = daemon.cpu_seconds()?;
    let min_passes = workload.min_passes();
    let seconds = Duration::from_secs(args.seconds);
    let first = plan.pass(0);
    let (window, items, outcomes, passes) = drive(&daemon, first, clients, |pass, elapsed| {
        (pass < min_passes || elapsed < seconds).then(|| plan.pass(pass))
    });
    let cpu_s = daemon.cpu_seconds()? - cpu_before;
    let peak_rss_mib = daemon.peak_rss_mib()?;
    let after = daemon.metrics()?;
    daemon.stop()?;

    // Parse answers; group distinct results per design.
    let mut failed = vec![false; outcomes.len()];
    let mut results: HashMap<usize, Vec<(String, Served)>> = HashMap::new();
    let mut seen: HashMap<(usize, String), Served> = HashMap::new();
    let mut owners: HashMap<(usize, String), Vec<usize>> = HashMap::new();
    let mut triples: HashMap<(usize, u64, String), String> = HashMap::new();
    let mut faults: Vec<String> = Vec::new();
    for (k, o) in outcomes.iter().enumerate() {
        let item = &items[o.item];
        let d = item.design();
        if !(200..300).contains(&o.status) {
            failed[k] = true;
            faults.push(format!(
                "request {} answered {}: {}",
                o.item,
                o.status,
                o.body.chars().take(200).collect::<String>()
            ));
            continue;
        }
        let pairs = match parse_answer(&plan, item, &o.body) {
            Ok(p) => p,
            Err(e) => {
                failed[k] = true;
                faults.push(format!("request {}: {e}", o.item));
                continue;
            }
        };
        for (script, served) in pairs {
            if let Item::Customize { seed, request, .. } = item {
                let first =
                    triples.entry((d, *seed, request.clone())).or_insert_with(|| script.clone());
                if *first != script {
                    failed[k] = true;
                    faults.push(format!(
                        "{}: repeated (seed {seed}, {request:?}) gave another script",
                        designs[d].name
                    ));
                }
            }
            let key = (d, script.clone());
            owners.entry(key.clone()).or_default().push(k);
            match seen.get(&key) {
                Some(prev) if !check::same_qor(&prev.qor, &served.qor) || prev.ok != served.ok => {
                    failed[k] = true;
                    faults.push(format!(
                        "{}: one script served two different results",
                        designs[d].name
                    ));
                }
                Some(_) => {}
                None => {
                    seen.insert(key, served.clone());
                    results.entry(d).or_default().push((script, served));
                }
            }
        }
    }

    // Check every distinct result apart from the serving path.
    let check_started = Instant::now();
    let checks = check::check_all(&designs, &results, args.seed, threads)?;
    for ((d, script), ks) in &owners {
        let verdict = &checks[d].verdicts[script];
        if !verdict.faults.is_empty() {
            faults.push(format!("{}: {}", designs[*d].name, verdict.faults.join("; ")));
            for k in ks {
                failed[*k] = true;
            }
        }
    }
    match results.keys().min_by_key(|d| designs[**d].source.len()) {
        Some(&d) => match check::self_test(&designs[d], args.seed) {
            Ok(summary) => eprintln!("perfbench: {summary}"),
            Err(e) => faults.push(e),
        },
        None => faults.push("no result to self-test the checker on".into()),
    }
    for f in &faults {
        eprintln!("perfbench: check failed: {f}");
    }
    eprintln!(
        "perfbench: set-up {setup_s:.2} s (rounds {setups:.2?}), timed window {:.2} s, checks {:.2} s ({} distinct results)",
        window.as_secs_f64(),
        check_started.elapsed().as_secs_f64(),
        seen.len()
    );

    // QoR of distinct valid results against the baseline script.
    let mut gains = Vec::new();
    let mut ratios = Vec::new();
    let mut final_cells = Vec::new();
    for (d, rs) in &results {
        let base = checks[d].baseline.as_ref().ok_or("baseline was not recomputed")?;
        for (script, _) in rs {
            let v = &checks[d].verdicts[script];
            if v.ok && respects_fixed_period(script, designs[*d].default_period) {
                gains.push(v.qor.wns - base.wns);
                ratios.push(v.qor.area / base.area);
                final_cells.push(v.qor.cells as f64);
            }
        }
    }

    let attempted = outcomes.len();
    let failed_n = failed.iter().filter(|f| **f).count();
    let latencies: Vec<f64> =
        outcomes.iter().zip(&failed).filter(|(_, f)| !**f).map(|(o, _)| o.latency_ms).collect();
    let completed = latencies.len();
    let q = workload.tail_quantile();
    eprintln!(
        "perfbench: workload={} clients={clients} attempted={attempted} failed={failed_n} passes={passes} \
         window_s={:.3} latency_samples={completed} beyond_p{}={}",
        workload.name(),
        window.as_secs_f64(),
        q * 100.0,
        stats::beyond(&latencies, q)
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.push(("setup_s".into(), setup_s, "s"));
        metrics.push(("throughput_rps".into(), completed as f64 / window.as_secs_f64(), "1/s"));
        metrics.push(("latency_p50_ms".into(), stats::median(&latencies), "ms"));
        metrics.push(("latency_tail_ms".into(), stats::quantile(&latencies, q), "ms"));
        metrics.push(("cpu_ms_per_req".into(), cpu_s * 1e3 / completed.max(1) as f64, "ms"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mib, "MiB"));
        metrics.push(("qor_wns_gain_ns".into(), stats::mean(&gains), "ns"));
        metrics.push(("qor_area_ratio".into(), stats::geomean(&ratios), "ratio"));
    } else {
        let mut tracer = trace::Tracer::new();
        let mut replay_plan = Plan::new(workload, args.seed, designs.clone());
        let trace::Replay { layers, requests, request_ms } =
            trace::replay(&mut replay_plan, &mut tracer)?;
        let path = out_dir.join(format!("trace-{}-seed{}.json", workload.name(), args.seed));
        tracer.write(&path, workload.name(), &designs)?;
        eprintln!("perfbench: wrote {} spans to {}", tracer.spans.len(), path.display());
        let client_mean_ms = stats::mean(&latencies);
        let delta = |name: &str| metric_delta(&before, &after, name);
        let unit = |name: &str| {
            if name.ends_with("_ms") || name.contains("_ms.") {
                "ms"
            } else if name.ends_with("ratio") {
                "ratio"
            } else {
                "count"
            }
        };
        let mut push = |name: &str, v: f64| metrics.push((name.to_string(), v, unit(name)));
        for (name, v) in &layers {
            push(name, *v);
        }
        push("synth.gates_final", stats::mean(&final_cells));
        push(
            "core.mentor.embed_batch_size",
            ratio(delta("core.mentor.embed_batched"), delta("core.mentor.embed_batches")),
        );
        let hits = delta("core.qorcache.hits");
        push("eval.qorcache_hit_ratio", ratio(hits, hits + delta("core.qorcache.misses")));
        let handle = layers.iter().find(|(n, _)| n == "serve.handle_ms").map_or(0.0, |(_, v)| *v);
        push("serve.transport_ms", client_mean_ms - handle);
        let pool_hits = delta("serve.pool.hit");
        push("serve.pool.hit_ratio", ratio(pool_hits, pool_hits + delta("serve.pool.miss")));
        push("serve.pool.builds", delta("serve.pool.builds"));
        push("serve.pool.evictions", delta("serve.pool.evictions"));
        push("trace.attributed_ratio", ratio(request_ms / requests as f64, client_mean_ms));
    }

    println!(
        "perfbench: workload={} clients={clients} attempted={attempted} failed={failed_n}",
        workload.name()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed_n}, \"metrics\": {{{}}}}}",
        faults.is_empty(),
        body.join(", ")
    );
    Ok(())
}
