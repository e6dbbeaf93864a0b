//! The repository benchmark: runs one workload, checks its output against
//! the correctness oracle, and prints every metric by name with its unit.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! perfbench --workload <steady|saturate|failover|paper_sim> --seed <n>
//!           --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` repeats the
//! measured run for the runtime gauges, then replays the workload's own
//! input single-threaded through the layers with a span around every call,
//! writes the spans to the work dir, and reports per-layer self times.

mod host;
mod live;
mod oracle;
mod reference;
mod replay;
mod spans;
mod stats;

use borealis_workloads::TcpChainSpec;
use live::{reading, Live, Params, Reading, Workload};
use std::path::PathBuf;

/// First argument that turns this binary into a `failover` worker process.
pub const CHILD_SENTINEL: &str = "__tcp_child";

struct Args {
    params: Params,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(val).ok_or_else(|| format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&s) {
                    return Err("--seconds must be within 1..=60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--work-dir" => work_dir = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        params: Params {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            work_dir,
        },
        trace,
    })
}

/// The gated end-to-end metrics (every workload reports all of them).
fn end_to_end(l: &Live) -> Vec<Reading> {
    vec![
        reading("setup_s", l.setup_s, "s"),
        reading("stable_tuples_per_s", l.stable_per_s, "1/s"),
        reading("cpu_us_per_tuple", l.cpu_us_per_tuple, "us"),
        reading("peak_rss_mb", l.peak_rss_mb, "MB"),
    ]
}

/// Parses `key=value` fields of a recovery marker.
fn marker_field(m: &str, key: &str) -> Option<f64> {
    m.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// The traced run's per-layer metrics.
fn per_layer(p: &Params, l: &Live) -> std::io::Result<(Vec<Reading>, bool)> {
    let shape = p.shape();
    let (layout, out, rate) = match p.workload {
        Workload::Failover => {
            // The replay opens its own stores; the plan is the same.
            let spec = TcpChainSpec {
                durable_dir: None,
                ..p.tcp_spec()
            };
            let (layout, out) = spec.layout(false);
            (layout, out, spec.per_source_rate)
        }
        Workload::PaperSim => {
            let (b, out) = borealis_workloads::chain_builder(&Default::default());
            (b.layout(), out, shape.total_rate / f64::from(live::SOURCES))
        }
        _ => {
            let (b, out) = borealis_workloads::sharded_chain_builder(&p.chain_options());
            (b.layout(), out, shape.total_rate / f64::from(live::SOURCES))
        }
    };
    // The replay covers the workload's input up to 100k tuples per source
    // and 20 s of input time, which bounds its disk use and run time.
    let per_source = shape
        .per_source
        .min(100_000)
        .min((rate * 20.0) as u64)
        .max(1);
    let dir = p.dir("replay");
    let mut rec = spans::Recorder::new();
    let r = replay::replay(&layout, out, rate, per_source, &dir, &mut rec)?;
    let spans_path = p
        .work_dir
        .join(format!("spans-{:?}-{}.jsonl", p.workload, p.seed));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&spans_path)?);
    rec.write_jsonl(&mut f)?;
    std::io::Write::flush(&mut f)?;
    let _ = std::fs::remove_dir_all(&dir);

    let t = spans::self_times(rec.spans());
    let self_ns = |name: &str| t.get(name).map_or(0, |v| v.2) as f64;
    let calls = |name: &str| t.get(name).map_or(0, |v| v.0).max(1) as f64;
    let n = r.tuples as f64;
    let per_tuple = |name: &str| self_ns(name) / n;

    let mut layers = vec![
        "types.route",
        "engine.ingest",
        "engine.work",
        "engine.deliver",
        "core.client.record",
    ];
    if p.workload == Workload::Failover {
        layers.extend([
            "core.codec.encode",
            "core.codec.decode",
            "core.durable.append",
        ]);
    }
    let attributed_us: f64 = layers.iter().map(|l| per_tuple(l)).sum::<f64>() / 1000.0;

    let (recover_us, replayed) = if l.recoveries.is_empty() {
        (
            self_ns("core.durable.recover") / 1000.0,
            r.replayed_records as f64,
        )
    } else {
        let us: Vec<f64> = l
            .recoveries
            .iter()
            .filter_map(|m| marker_field(m, "recover_us"))
            .collect();
        let rep: f64 = l
            .recoveries
            .iter()
            .filter_map(|m| marker_field(m, "replayed"))
            .sum();
        (stats::median(&us).unwrap_or(0.0), rep)
    };
    let ktuples = (l.stable.max(1)) as f64 / 1000.0;
    let frames_per_flush = if l.wire.flushes == 0 {
        0.0
    } else {
        l.wire.frames_sent as f64 / l.wire.flushes as f64
    };
    let sim_us = l
        .sim_wall_us_per_virtual_s
        .unwrap_or_else(|| live::sim_probe(p));
    let replay_total_us = t.get("replay.tick").map_or(0, |v| v.1) as f64 / n / 1000.0;
    let mut metrics: Vec<Reading> = [
        ("types.route_ns_per_tuple", "types.route"),
        ("engine.ingest_ns_per_tuple", "engine.ingest"),
        ("engine.work_ns_per_tuple", "engine.work"),
        ("engine.deliver_ns_per_tuple", "engine.deliver"),
        ("core.client_record_ns_per_tuple", "core.client.record"),
        ("core.codec_encode_ns_per_tuple", "core.codec.encode"),
        ("core.codec_decode_ns_per_tuple", "core.codec.decode"),
        ("core.durable_append_ns_per_tuple", "core.durable.append"),
    ]
    .into_iter()
    .map(|(metric, span)| reading(metric, per_tuple(span), "ns"))
    .collect();
    let per_call = |span: &str| self_ns(span) / calls(span);
    metrics.extend([
        reading("engine.checkpoint_ns", per_call("engine.checkpoint"), "ns"),
        reading("core.wire_bytes_per_tuple", r.wire_bytes as f64 / n, "B"),
        reading(
            "core.durable_checkpoint_us",
            per_call("core.durable.checkpoint") / 1e3,
            "us",
        ),
        reading(
            "core.durable_recover_ms",
            self_ns("core.durable.recover") / 1e6,
            "ms",
        ),
        reading("store.log_bytes_per_tuple", r.log_bytes_per_tuple, "B"),
        reading("store.recover_us", recover_us, "us"),
        reading("store.replayed_records", replayed, "count"),
        reading(
            "runtime.steals_per_ktuple",
            l.sched.steals as f64 / ktuples,
            "count",
        ),
        reading(
            "runtime.parks_per_ktuple",
            l.sched.parks as f64 / ktuples,
            "count",
        ),
        reading(
            "runtime.inflight_peak",
            l.flow.inflight_peak as f64,
            "count",
        ),
        reading("runtime.tcp_frames_per_flush", frames_per_flush, "ratio"),
        reading(
            "runtime.unattributed_us_per_tuple",
            l.cpu_us_per_tuple - attributed_us,
            "us",
        ),
        reading("sim.wall_us_per_virtual_s", sim_us, "us"),
        reading("replay.total_us_per_tuple", replay_total_us, "us"),
    ]);
    println!(
        "traced replay: {} tuples, spans in {}",
        r.tuples,
        spans_path.display()
    );
    println!(
        "  {:<36} {:>14}",
        "live cpu_us_per_tuple",
        format!("{:.4} us", l.cpu_us_per_tuple)
    );
    println!(
        "  {:<36} {:>14}",
        "replay (single-threaded) us/tuple",
        format!("{replay_total_us:.4} us")
    );
    for (name, (calls, total, own)) in &t {
        println!(
            "  span {name:<31} calls={calls:<8} total_ms={:<10.3} self_ms={:.3}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    Ok((metrics, r.output_ok))
}

fn run(args: &Args) -> std::io::Result<String> {
    let p = &args.params;
    std::fs::create_dir_all(&p.work_dir)?;
    let l = live::run(p)?;
    println!(
        "workload={:?} seed={} seconds={} trace={}",
        p.workload, p.seed, p.seconds, args.trace as u8
    );
    let print = |r: &Reading| {
        println!(
            "  {:<36} {:>14} {}",
            r.name,
            format!("{:.6}", r.value),
            r.unit
        )
    };
    let e2e = end_to_end(&l);
    e2e.iter().for_each(print);
    l.report.iter().for_each(print);
    println!("  {:<36} {:>14}", "attempted", l.attempted);
    println!("  {:<36} {:>14}", "failed", l.failed);
    println!("  {:<36} {:>14}", "correct", l.correct);

    let (metrics, correct) = if args.trace {
        let (m, replay_ok) = per_layer(p, &l)?;
        m.iter().for_each(print);
        (m, l.correct && replay_ok)
    } else {
        (e2e, l.correct)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(std::io::Error::other(format!(
            "metric {} is not finite",
            bad.name
        )));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        l.attempted.max(1),
        l.failed,
        body.join(", ")
    ))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == CHILD_SENTINEL) {
        if let Err(e) =
            borealis_workloads::run_tcp_child_args(argv.iter().skip(1).map(|s| s.as_str()))
        {
            eprintln!("worker process: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
