//! In-process half of the end-to-end benchmark (`e2ebench/run.py` drives
//! it; `e2ebench/README.md` defines the workloads and metrics).
//!
//! ```text
//! e2eprobe stream --seed S --requests N     # family \t key \t request line
//! e2eprobe check < responses                # id \t ok \t clean \t kind \t work
//! e2eprobe trace-paper --store DIR          # traced paper pass, JSON on stdout
//! e2eprobe trace-serve --seed S --requests N --store DIR
//! ```
//!
//! Every per-layer time is a benchmark-owned span: an `Instant` pair
//! around one call into a public function of the program. The program's
//! own spans are used in one place only: the `curve/<kernel>` and
//! `problem/jpeg` generation spans it emits under [`Clock::Real`] once
//! [`rtise_bench::set_generation_trace_clock`] arms them.

use rtise::check::serve::{check_response, KINDS as FAMILIES};
use rtise_bench::store;
use rtise_obs::json::Value;
use rtise_obs::CounterScope;
use rtise_serve::engine::set_field;
use rtise_serve::proto::{self, ReconfigReq, ReqKind, Request};
use rtise_serve::server::STORE_TAG;
use rtise_serve::ResponseArtifact;
use rtise_trace::{Clock, EventKind, TraceScope};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::BufRead;
use std::path::PathBuf;
use std::time::Instant;

const USAGE: &str = "usage: e2eprobe stream --seed S --requests N | check | \
                     trace-paper --store DIR | trace-serve --seed S --requests N --store DIR";

/// The paper pass's layers: which experiments exercise which module.
/// Every experiment of [`rtise_bench::ALL`] must appear.
const MODULES: &[(&str, &[&str])] = &[
    ("select.sched_s", &["fig3_1", "fig3_2", "fig3_3", "fig3_4"]),
    ("select.pareto_s", &["fig4_1", "tab4_2", "fig4_4"]),
    (
        "mlgp.customize_s",
        &["tab5_1", "fig5_3", "fig5_4", "fig5_5", "fig5_6"],
    ),
    (
        "reconfig.partition_s",
        &["tab6_1", "fig6_8", "tab6_2", "fig6_10"],
    ),
    ("reconfig.rt_s", &["tab7_1", "fig7_4", "tab7_2"]),
    ("sim.ext_s", &["fig8_4", "ext_arch", "ext_ablation"]),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("stream") => stream(&args[1..]),
        Some("check") => check(),
        Some("trace-paper") => trace_paper(&args[1..]),
        Some("trace-serve") => trace_serve(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    if let Err(msg) = result {
        eprintln!("e2eprobe: {msg}");
        std::process::exit(1);
    }
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{name} is missing or malformed ({USAGE})"))
}

/// Renders a request as the wire line `proto::parse` reads back.
fn request_line(req: &Request) -> String {
    let mut fields: Vec<(&str, Value)> =
        vec![("id", req.id.into()), ("kind", req.kind.name().into())];
    match &req.kind {
        ReqKind::Curve { kernel, level } => {
            fields.push(("kernel", kernel.as_str().into()));
            fields.push(("level", level.as_str().into()));
        }
        ReqKind::SelectEdf {
            kernels,
            u0_pct,
            budget,
            level,
        }
        | ReqKind::SelectRms {
            kernels,
            u0_pct,
            budget,
            level,
        } => {
            fields.push((
                "kernels",
                Value::Arr(kernels.iter().map(|k| k.as_str().into()).collect()),
            ));
            fields.push(("u0_pct", (*u0_pct).into()));
            fields.push(("budget", (*budget).into()));
            fields.push(("level", level.as_str().into()));
        }
        ReqKind::Ilp { seed } => fields.push(("seed", (*seed).into())),
        ReqKind::Reconfig(ReconfigReq::Jpeg {
            fabric_pct,
            reconfig_cost,
            level,
        }) => {
            fields.push(("problem", "jpeg".into()));
            fields.push(("fabric_pct", (*fabric_pct).into()));
            fields.push(("reconfig_cost", (*reconfig_cost).into()));
            fields.push(("level", level.as_str().into()));
        }
        ReqKind::Reconfig(ReconfigReq::Synthetic { n, seed }) => {
            fields.push(("problem", "synthetic".into()));
            fields.push(("n", (*n).into()));
            fields.push(("seed", (*seed).into()));
        }
    }
    Value::obj(fields).render()
}

/// The seeded stream with its lines; a line that does not parse back to
/// its request is a harness bug, not a measurement.
fn rendered_stream(seed: u64, n: usize) -> Result<Vec<(Request, String)>, String> {
    rtise_serve::traffic::generate(seed, n)
        .into_iter()
        .map(|req| {
            let line = request_line(&req);
            match proto::parse(&line) {
                Ok(back) if back == req => Ok((req, line)),
                _ => Err(format!("request line does not round-trip: {line}")),
            }
        })
        .collect()
}

fn stream(args: &[String]) -> Result<(), String> {
    let seed = flag(args, "--seed")?;
    let n = flag(args, "--requests")?;
    for (req, line) in rendered_stream(seed, n)? {
        println!(
            "{}\t{}\t{line}",
            req.kind.name(),
            proto::dedup_key(&req.kind)
        );
    }
    Ok(())
}

/// Re-certifies every response line on stdin with `check_response`.
fn check() -> Result<(), String> {
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("reading responses: {e}"))?;
        let (id, ok, clean, kind, work) = match rtise_obs::json::parse(&line) {
            Ok(doc) => (
                doc.get("id").and_then(Value::as_f64).unwrap_or(-1.0),
                matches!(doc.get("ok"), Some(Value::Bool(true))),
                check_response(&doc).is_clean(),
                doc.get("kind")
                    .and_then(Value::as_str)
                    .unwrap_or("-")
                    .to_string(),
                doc.get("work").and_then(Value::as_f64).unwrap_or(0.0),
            ),
            Err(_) => (-1.0, false, false, "-".to_string(), 0.0),
        };
        println!(
            "{id}\t{}\t{}\t{kind}\t{work}",
            u8::from(ok),
            u8::from(clean)
        );
    }
    Ok(())
}

/// Seconds covered by the top-level spans of generation scopes; a
/// generation nested inside another (a curve built for the JPEG problem)
/// is counted once.
fn generation_s(scopes: &[(String, TraceScope)]) -> f64 {
    let mut spans: Vec<(u64, u64)> = Vec::new();
    for (_, scope) in scopes {
        let mut depth = 0usize;
        let mut start = 0u64;
        for e in scope.events() {
            match e.kind {
                EventKind::Begin => {
                    if depth == 0 {
                        start = e.ts;
                    }
                    depth += 1;
                }
                EventKind::End => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        spans.push((start, e.ts));
                    }
                }
                EventKind::Instant => {}
            }
        }
    }
    spans.sort_unstable();
    let mut covered = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in spans {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    covered as f64 * 1e-9
}

fn num_obj(pairs: Vec<(String, f64)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k, Value::Num(v))).collect())
}

/// The `reproduce --check --jobs 1` work, in process: each experiment,
/// then its certification, with a span around each call. Experiment self
/// time excludes the curve generation that happens inside it, which is
/// reported as `ise.curve_s` instead.
fn trace_paper(args: &[String]) -> Result<(), String> {
    let dir: PathBuf = flag(args, "--store")?;
    let module_of = |id: &str| {
        MODULES
            .iter()
            .position(|(_, ids)| ids.contains(&id))
            .ok_or_else(|| format!("experiment {id} has no layer in the benchmark"))
    };
    rtise_bench::set_cache_dir(Some(dir));
    rtise_bench::set_generation_trace_clock(Some(Clock::Real));

    let mut module_s = [0.0f64; MODULES.len()];
    let mut curve_s = 0.0;
    let mut certify_s = 0.0;
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut failed: Vec<Value> = Vec::new();
    let total = Instant::now();
    for (id, _) in rtise_bench::ALL {
        let module = module_of(id)?;
        let t = Instant::now();
        let (report, _) = rtise_bench::run_observed_traced(id, true, None)?;
        let run_s = t.elapsed().as_secs_f64();
        let gen = generation_s(&rtise_bench::take_generation_traces());
        module_s[module] += run_s - gen;
        curve_s += gen;
        for (k, v) in &report.counters {
            *counters.entry(k.clone()).or_insert(0) += v;
        }
        if !report.ok {
            failed.push((*id).into());
            continue;
        }

        let scope = CounterScope::new();
        let t = Instant::now();
        let verdict = {
            let _guard = scope.enter();
            std::panic::catch_unwind(|| rtise_bench::certify::certify(id))
        };
        let cert_s = t.elapsed().as_secs_f64();
        let gen = generation_s(&rtise_bench::take_generation_traces());
        certify_s += cert_s - gen;
        curve_s += gen;
        for (k, v) in scope.counters() {
            *counters.entry(format!("check.{k}")).or_insert(0) += v;
        }
        if !matches!(verdict, Ok(Ok(d)) if d.is_clean()) {
            failed.push((*id).into());
        }
    }
    let wall_s = total.elapsed().as_secs_f64();
    rtise_bench::set_generation_trace_clock(None);

    let (hits, misses, stores) = rtise_bench::cache_stats();
    let mut layers: Vec<(String, f64)> = MODULES
        .iter()
        .zip(module_s)
        .map(|((name, _), s)| ((*name).into(), s))
        .collect();
    layers.push(("ise.curve_s".into(), curve_s));
    layers.push(("check.certify_s".into(), certify_s));
    let doc = Value::obj(vec![
        ("experiments", (rtise_bench::ALL.len() as u64).into()),
        ("failed", Value::Arr(failed)),
        ("wall_s", Value::Num(wall_s)),
        ("layers", num_obj(layers)),
        ("counters", Value::from(&counters)),
        (
            "cache",
            Value::obj(vec![
                ("hits", hits.into()),
                ("misses", misses.into()),
                ("stores", stores.into()),
            ]),
        ),
    ]);
    println!("{}", doc.render());
    Ok(())
}

/// Task specs exactly as the engine builds them for a selection request.
fn selection_specs(
    kernels: &[String],
    u0_pct: u64,
    level: proto::Level,
) -> Vec<rtise::select::TaskSpec> {
    let curves: Vec<_> = kernels
        .iter()
        .map(|k| rtise_bench::cached_curve_with(k, &level.options()))
        .collect();
    let bases: Vec<u64> = curves.iter().map(|c| c.base_cycles).collect();
    let periods = rtise::select::task::periods_for_utilization(&bases, u0_pct as f64 / 100.0);
    curves
        .into_iter()
        .zip(periods)
        .map(|(c, p)| rtise::select::TaskSpec::new(c, p))
        .collect()
}

/// Replays one request's curve lookups, then its solver call, with a span
/// around each. Returns `(lookup_s, solver_s)`.
fn decompose(kind: &ReqKind) -> Result<(f64, f64), String> {
    let t = Instant::now();
    Ok(match kind {
        ReqKind::Curve { kernel, level } => {
            black_box(rtise_bench::cached_curve_with(kernel, &level.options()));
            (t.elapsed().as_secs_f64(), 0.0)
        }
        ReqKind::SelectEdf {
            kernels,
            u0_pct,
            budget,
            level,
        } => {
            let specs = selection_specs(kernels, *u0_pct, *level);
            let lookup = t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(rtise::select::select_edf(&specs, *budget).map_err(|e| e.to_string())?);
            (lookup, t.elapsed().as_secs_f64())
        }
        ReqKind::SelectRms {
            kernels,
            u0_pct,
            budget,
            level,
        } => {
            let specs = selection_specs(kernels, *u0_pct, *level);
            let lookup = t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(rtise::select::select_rms(&specs, *budget).map_err(|e| e.to_string())?);
            (lookup, t.elapsed().as_secs_f64())
        }
        ReqKind::Ilp { seed } => {
            // The engine's instance generator and options.
            let model = rtise_fuzz::gen::ilp_model(
                &mut rtise_obs::Rng::new(*seed),
                &rtise_fuzz::gen::IlpOptions {
                    min_vars: 4,
                    max_vars: 10,
                    max_rows: 6,
                    le_rows_only: true,
                },
            );
            let t = Instant::now();
            black_box(model.solve().map_err(|e| e.to_string())?);
            (0.0, t.elapsed().as_secs_f64())
        }
        ReqKind::Reconfig(ReconfigReq::Jpeg {
            fabric_pct,
            reconfig_cost,
            level,
        }) => {
            let mut problem = rtise_bench::cached_jpeg_problem_with(&level.options());
            let lookup = t.elapsed().as_secs_f64();
            let full: u64 = problem.loops.iter().map(|l| l.best().area).sum();
            problem.max_area = (full * fabric_pct / 100).max(1);
            problem.reconfig_cost = *reconfig_cost;
            let t = Instant::now();
            black_box(rtise::reconfig::iterative_partition(&problem, 9));
            (lookup, t.elapsed().as_secs_f64())
        }
        ReqKind::Reconfig(ReconfigReq::Synthetic { n, seed }) => {
            let problem = rtise::reconfig::partition::synthetic_problem(*n as usize, *seed);
            let t = Instant::now();
            black_box(rtise::reconfig::iterative_partition(&problem, *seed));
            (0.0, t.elapsed().as_secs_f64())
        }
    })
}

fn mean_ms(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() * 1e3 / samples.len().max(1) as f64
}

/// The serve layers on the seeded stream, in process: parse, execution of
/// each distinct request on cold memos (split into curve lookup, solver
/// call and the engine's remainder), store write and read, response
/// re-certification and render.
fn trace_serve(args: &[String]) -> Result<(), String> {
    let seed = flag(args, "--seed")?;
    let n = flag(args, "--requests")?;
    let dir: PathBuf = flag(args, "--store")?;
    let stream = rendered_stream(seed, n)?;

    let t = Instant::now();
    for (_, line) in &stream {
        black_box(proto::parse(black_box(line))?);
    }
    let parse_us = t.elapsed().as_secs_f64() * 1e6 / stream.len() as f64;

    let mut seen = HashSet::new();
    let distinct: Vec<(String, Request)> = stream
        .iter()
        .map(|(req, _)| (proto::dedup_key(&req.kind), req))
        .filter(|(key, _)| seen.insert(key.clone()))
        .map(|(key, req)| {
            let kind = req.kind.clone();
            (key, Request { id: 0, kind })
        })
        .collect();

    // A warm-up pass, then the same executions without and with per-call
    // spans; the difference is the tracing overhead. Memos are cleared
    // before each pass, so every pass computes cold.
    let mut untraced_s = 0.0;
    for _ in 0..2 {
        rtise_bench::clear_curve_memo();
        let t = Instant::now();
        for (_, req) in &distinct {
            black_box(rtise_serve::execute(req));
        }
        untraced_s = t.elapsed().as_secs_f64();
    }
    rtise_bench::clear_curve_memo();
    let traced = Instant::now();
    let mut exec_s = Vec::with_capacity(distinct.len());
    let mut responses = Vec::with_capacity(distinct.len());
    for (_, req) in &distinct {
        let t = Instant::now();
        let resp = rtise_serve::execute(req);
        exec_s.push(t.elapsed().as_secs_f64());
        responses.push(resp);
    }
    let traced_s = traced.elapsed().as_secs_f64();
    if let Some(i) = responses
        .iter()
        .position(|r| !matches!(r.get("ok"), Some(Value::Bool(true))))
    {
        return Err(format!(
            "request {:?} failed: {}",
            distinct[i].0,
            responses[i].render()
        ));
    }

    rtise_bench::clear_curve_memo();
    let mut family_exec: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut family_solver: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut overhead_s = Vec::with_capacity(distinct.len());
    for ((_, req), exec) in distinct.iter().zip(&exec_s) {
        let (lookup, solver) = decompose(&req.kind)?;
        let family = req.kind.name();
        family_exec.entry(family).or_default().push(*exec);
        family_solver.entry(family).or_default().push(solver);
        overhead_s.push(exec - lookup - solver);
    }
    if let Some(missing) = FAMILIES.iter().find(|f| !family_exec.contains_key(*f)) {
        return Err(format!(
            "the stream has no {missing} request; use more requests"
        ));
    }

    let no_counters = BTreeMap::new();
    let no_hists = BTreeMap::new();
    let mut write_s = Vec::with_capacity(distinct.len());
    for ((key, _), resp) in distinct.iter().zip(&responses) {
        let artifact = ResponseArtifact(resp.clone());
        let t = Instant::now();
        store::store(&dir, STORE_TAG, key, &artifact, &no_counters, &no_hists)
            .map_err(|e| format!("store write failed: {e}"))?;
        write_s.push(t.elapsed().as_secs_f64());
    }
    let mut read_s = Vec::with_capacity(distinct.len());
    let mut stored = Vec::with_capacity(distinct.len());
    for (key, _) in &distinct {
        let t = Instant::now();
        let entry = store::load::<ResponseArtifact>(&dir, STORE_TAG, key);
        read_s.push(t.elapsed().as_secs_f64());
        stored.push(entry.ok_or_else(|| format!("stored response {key:?} did not load"))?);
    }
    let mut check_s = Vec::with_capacity(stored.len());
    for (artifact, _, _) in &stored {
        let t = Instant::now();
        let clean = check_response(&artifact.0).is_clean();
        check_s.push(t.elapsed().as_secs_f64());
        if !clean {
            return Err("a stored response failed re-certification".into());
        }
    }

    let index: BTreeMap<&str, usize> = distinct
        .iter()
        .enumerate()
        .map(|(i, (key, _))| (key.as_str(), i))
        .collect();
    let mut work: BTreeMap<&str, u64> = FAMILIES.iter().map(|f| (*f, 0)).collect();
    let mut stamped = Vec::with_capacity(stream.len());
    for (req, _) in &stream {
        let mut resp = responses[index[proto::dedup_key(&req.kind).as_str()]].clone();
        set_field(&mut resp, "id", req.id.into());
        *work.entry(req.kind.name()).or_insert(0) +=
            resp.get("work").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        stamped.push(resp);
    }
    let t = Instant::now();
    for resp in &stamped {
        black_box(black_box(resp).render());
    }
    let render_us = t.elapsed().as_secs_f64() * 1e6 / stamped.len() as f64;

    let mut layers: Vec<(String, f64)> = FAMILIES
        .iter()
        .map(|f| (format!("serve.exec.{f}_ms"), mean_ms(&family_exec[f])))
        .collect();
    for (name, family) in [
        ("select.edf_ms", "select_edf"),
        ("select.rms_ms", "select_rms"),
        ("ilp.solve_ms", "ilp"),
        ("reconfig.iterative_ms", "reconfig"),
    ] {
        layers.push((name.into(), mean_ms(&family_solver[family])));
    }
    layers.push(("serve.engine_overhead_ms".into(), mean_ms(&overhead_s)));
    layers.push(("store.write_ms".into(), mean_ms(&write_s)));
    layers.push(("store.read_ms".into(), mean_ms(&read_s)));
    layers.push(("check.response_ms".into(), mean_ms(&check_s)));
    layers.push(("serve.parse_us".into(), parse_us));
    layers.push(("serve.render_us".into(), render_us));

    let doc = Value::obj(vec![
        ("requests", (stream.len() as u64).into()),
        ("distinct", (distinct.len() as u64).into()),
        (
            "work",
            Value::Obj(
                work.into_iter()
                    .map(|(k, v)| (k.into(), v.into()))
                    .collect(),
            ),
        ),
        ("untraced_s", Value::Num(untraced_s)),
        ("traced_s", Value::Num(traced_s)),
        ("layers", num_obj(layers)),
    ]);
    println!("{}", doc.render());
    Ok(())
}
