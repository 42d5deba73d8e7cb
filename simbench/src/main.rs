//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end (`--trace 0`) or per-layer (`--trace 1`) metrics.

use simbench::host;
use simbench::run::{measure, Metric};
use simbench::speed::REFERENCE;
use simbench::suite::{Bench, WORKLOADS};
use std::process::exit;

const USAGE: &str = "usage: simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_metrics(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("simbench: {e}\n{USAGE}");
        exit(2);
    });
    let bench = Bench::new(&args.workload, args.seed).unwrap_or_else(|| {
        eprintln!(
            "simbench: unknown workload {}; one of {}",
            args.workload,
            WORKLOADS.join(", ")
        );
        exit(2);
    });
    let run = measure(&bench, args.seconds, args.trace, None);

    println!(
        "simbench workload={} seed={} seconds={} trace={} passes={} traced_passes={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.untraced.len(),
        run.traced.len()
    );
    println!("{}", host::fingerprint());
    for (kind, ps) in [("untraced", &run.untraced), ("traced", &run.traced)] {
        let walls: Vec<String> = ps
            .iter()
            .map(|p| format!("{:.3}", p.wall.as_secs_f64()))
            .collect();
        let speeds: Vec<String> = ps
            .iter()
            .map(|p| format!("{:.3}", p.speed.factor))
            .collect();
        if !walls.is_empty() {
            println!("  {kind} pass raw wall_s: {}", walls.join(" "));
            println!("  {kind} pass host speed: {}", speeds.join(" "));
        }
    }
    if let Some(s) = &run.setup_speed {
        println!(
            "  set-up rounds host speed: {:.3} ({} samples, median {:.2} ms)",
            s.factor,
            s.samples(),
            s.sample_ms
        );
    }
    println!(
        "  host times below are at the reference speed: raw time x host speed, \
         host speed = {:.0} ms / median reference sample",
        REFERENCE.as_secs_f64() * 1e3
    );
    let metrics = if args.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    };
    for m in &metrics {
        println!(
            "  {:<24} {:>16.6} {:<7} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    if let Some(t) = run.traced.first() {
        let wall = t.wall.as_secs_f64();
        let tm = &t.timers;
        println!("  host-time shares of the first traced pass ({wall:.3} s):");
        for (layer, d) in [
            ("workloads", tm.build),
            ("mem.new", tm.mem_new),
            ("mem.drop", tm.teardown),
            ("core.new", tm.core_new),
            ("core.tick", tm.core_tick),
            ("mem.tick", tm.mem_tick),
            ("sim.loop", tm.loop_self()),
            ("sim.axiom", tm.check),
            ("sim.tsoref", tm.enumerate),
            ("sim.fuzz", tm.fuzz),
        ] {
            println!("    {layer:<12} {:>7.2} %", d.as_secs_f64() / wall * 100.0);
        }
    }
    let (attempted, failed) = (run.attempted(), run.failed());
    println!("  fail_ratio = {failed}/{attempted} = {}", run.fail_ratio());
    for line in run.failure_lines() {
        println!("  FAILED {line}");
    }
    println!("  sim_digest = {:016x}", run.sim_digest());
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        json_metrics(&metrics)
    );
}
