//! The Multicube workspace benchmark: four workloads, host-time end-to-end
//! metrics, and a traced run that breaks the time down by layer.
//!
//! ```text
//! mcbench --workload <serve|sweep|cube|verify|all> --seed N --seconds S --trace 0|1
//! mcbench compare A.json B.json
//! ```
//!
//! Each run repeats its workload until `--seconds` have passed (at least
//! three times, after one warm-up repetition), timing a fixed reference
//! loop between repetitions (`speed.rs`). With `--trace 0` it prints the
//! end-to-end metrics: host times scaled by the reference loop's time
//! around each repetition, averaged over the repetitions without the
//! fastest and the slowest. With `--trace 1` it alternates untraced and
//! traced repetitions and prints the per-layer metrics (medians over the
//! traced repetitions) plus the tracing overhead. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed`, `metrics`. Results
//! and spans are also written under `mcbench/out/`. See `README.md` for
//! the layer map.

mod counters;
mod cube;
mod rep;
mod serve;
mod speed;
mod sweep;
mod trace;
mod verify;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rep::Rep;
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["serve", "sweep", "cube", "verify"];

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("txns_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run (0 where a layer is
/// silent on the workload).
const PER_LAYER: [(&str, &str); 45] = [
    ("workload.gen_ns_per_request", "ns"),
    ("workload.encode_mb_per_s", "MB/s"),
    ("workload.validate_ms", "ms"),
    ("workload.decode_ns_per_record", "ns"),
    ("workload.bytes_per_record", "B"),
    ("machine.ns_per_txn", "ns"),
    ("machine.new_us", "us"),
    ("machine.check_ms", "ms"),
    ("machine.ops_per_txn", "count"),
    ("wheel.ns_per_event", "ns"),
    ("wheel.events_per_txn", "count"),
    ("wheel.queue_high_water", "count"),
    ("bus.row_util", "ratio"),
    ("bus.col_util", "ratio"),
    ("bus.queue_high_water", "count"),
    ("bus.memory_bounces", "count"),
    ("fault.retries_per_txn", "count"),
    ("fault.watchdog_trips", "count"),
    ("mem.local_hit_ratio", "ratio"),
    ("mem.mlt_overflows", "count"),
    ("mem.victim_writebacks", "count"),
    ("pool.busy_frac", "ratio"),
    ("pool.job_p50_ms", "ms"),
    ("pool.job_max_ms", "ms"),
    ("pdes.rounds", "count"),
    ("pdes.events_per_round", "count"),
    ("pdes.messages", "count"),
    ("pdes.window_median_ns", "ns"),
    ("pdes.idle_ms", "ms"),
    ("pdes.speedup_vs_serial", "ratio"),
    ("cube.depth_issued", "count"),
    ("cube.depth_latency_mean_ns", "ns"),
    ("model.explore_ms", "ms"),
    ("model.states", "count"),
    ("model.transitions", "count"),
    ("model.states_per_transition", "ratio"),
    ("xval.sim_runs", "count"),
    ("xval.us_per_sim_run", "us"),
    ("xval.fingerprints_checked", "count"),
    ("mva.solve_us", "us"),
    ("states_per_s", "1/s"),
    ("fail_ratio", "ratio"),
    ("mva_abs_err", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("host.ref_ms", "ms"),
];

/// Repetitions measured at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Where results and spans are written, relative to the working directory.
const OUT_DIR: &str = "mcbench/out";

/// Command-line options of a run.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    "usage: mcbench --workload <serve|sweep|cube|verify|all> --seed N --seconds S --trace 0|1\n       mcbench compare A.json B.json".to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 25,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown option {flag}\n{}", usage())),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}\n{}", args.workload, usage()));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// One repetition of `workload`.
fn run_rep(workload: &str, seed: u64, tr: &mut Tracer) -> Rep {
    match workload {
        "serve" => serve::rep(seed, serve::SIZE, tr),
        "sweep" => sweep::rep(seed, &sweep::SIZE, tr),
        "cube" => cube::rep(seed, cube::SIZE, tr),
        "verify" => verify::rep(verify::SIZE, tr),
        other => unreachable!("unvalidated workload {other}"),
    }
}

/// The median of `values` (0 when empty).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The mean of `values` without the smallest and the largest when there
/// are at least five (0 when empty). A repetition caught by a burst of
/// host load moves it less than the mean; unlike the median it does not
/// jump between the host's fast and slow levels.
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = if v.len() >= 5 {
        &v[1..v.len() - 1]
    } else {
        &v[..]
    };
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// The process's peak resident set, in MB (0 where unreadable). With
/// `--workload all` later workloads inherit the earlier ones' high-water,
/// so per-workload memory needs one process per workload.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build facts every result carries.
fn provenance(args: &Args, workload: &str) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", env!("MCBENCH_RUSTC").to_string()),
        ("git_rev", env!("MCBENCH_GIT_REV").to_string()),
        ("profile", env!("MCBENCH_PROFILE").to_string()),
        ("workload", workload.to_string()),
        ("seed", args.seed.to_string()),
        (
            "mode",
            if args.trace { "traced" } else { "untraced" }.to_string(),
        ),
        ("seconds", args.seconds.to_string()),
    ]
}

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What one workload run produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    digest: String,
    metrics: Vec<Metric>,
}

/// Runs `workload` for `args.seconds`, prints its report and writes its
/// result and span files.
fn drive(workload: &'static str, args: &Args) -> Outcome {
    let mut tr = Tracer::new(workload);
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(args.seconds);
    // The warm-up repetition fills caches and the allocator; it is
    // checked like the others but not timed. The memory high-water is
    // read after it: one repetition's footprint, before allocator
    // fragmentation over many repetitions blurs it.
    let warm = run_rep(workload, args.seed, &mut tr);
    let peak_rss = peak_rss_mb();
    // The reference loop runs before the first timed repetition and after
    // each one; a repetition is scaled by the mean of its two neighbours.
    let mut reference = speed::Reference::new();
    let mut refs = vec![reference.sample()];
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for i in 1.. {
        let on = args.trace && i % 2 == 0;
        tr.set(on, i);
        let mut r = run_rep(workload, args.seed, &mut tr);
        let before = refs[refs.len() - 1];
        let after = reference.sample();
        refs.push(after);
        r.scale = (before + after) as f64 / 2.0 / speed::NOMINAL_NS;
        if on {
            traced.push(r);
        } else {
            plain.push(r);
        }
        let enough = plain.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    tr.set(false, 0);

    let all: Vec<&Rep> = std::iter::once(&warm)
        .chain(&plain)
        .chain(&traced)
        .collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    let same_digest = all.iter().all(|r| r.digest == warm.digest);
    let correct = failed == 0 && same_digest && attempted > 0;

    let fail_ratio = rep::ratio(failed as f64, attempted as f64);
    let med =
        |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let avg = |reps: &[Rep], f: &dyn Fn(&Rep) -> f64| {
        trimmed_mean(&reps.iter().map(f).collect::<Vec<_>>())
    };
    let wall = |r: &Rep| r.wall_ns() as f64 / 1e9;
    let scaled_wall = |r: &Rep| r.scaled_s(r.wall_ns());
    let ref_ms = median(&refs.iter().map(|&ns| ns as f64 / 1e6).collect::<Vec<_>>());
    let metrics: Vec<Metric> = if args.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "fail_ratio" => fail_ratio,
                    "trace.overhead_frac" => {
                        avg(&traced, &scaled_wall) / avg(&plain, &scaled_wall) - 1.0
                    }
                    "host.ref_ms" => ref_ms,
                    _ => med(&traced, &|r| r.reading(name)),
                };
                (name, v, unit)
            })
            .collect()
    } else {
        let values = [
            avg(&plain, &|r| r.scaled_s(r.setup_ns)),
            avg(&plain, &scaled_wall),
            avg(&plain, &|r| rep::ratio(r.txns as f64, r.scaled_s(r.run_ns))),
            peak_rss,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };

    // Human-readable report.
    let prov = provenance(args, workload);
    let prov_json = prov
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect::<Vec<_>>()
        .join(", ");
    println!("# provenance {{{prov_json}}}");
    println!(
        "# {workload}: {} untraced + {} traced repetitions after 1 warm-up, {:.1} s",
        plain.len(),
        traced.len(),
        t0.elapsed().as_secs_f64()
    );
    print!("{}", warm.summary);
    let digest_of = |reps: &[Rep]| reps.first().map_or("-".to_string(), |r| r.digest.clone());
    println!(
        "# digest {workload} untraced={} traced={} all_equal={same_digest}",
        digest_of(&plain),
        digest_of(&traced)
    );
    println!("# fail_ratio {fail_ratio} ({failed} of {attempted} operations failed)");
    let walls: Vec<f64> = plain.iter().map(wall).collect();
    let scales: Vec<f64> = plain.iter().map(|r| r.scale).collect();
    println!("# untraced wall_s samples, unscaled: {walls:.4?}");
    println!(
        "# their scales (reference loop over {} ms): {scales:.3?}",
        speed::NOMINAL_NS / 1e6
    );
    println!(
        "# unscaled medians: wall_s {:.4} setup_s {:.6}; reference loop median {ref_ms:.2} ms",
        med(&plain, &wall),
        med(&plain, &|r| r.setup_ns as f64 / 1e9)
    );
    if !args.trace {
        // Readings that are not end-to-end metrics on every workload.
        for (name, unit) in [("states_per_s", "1/s"), ("mva_abs_err", "ratio")] {
            let v = med(&plain, &|r| r.reading(name));
            if v != 0.0 {
                println!("# {name} {v} {unit}");
            }
        }
    } else {
        println!("# self time by span (all traced repetitions):");
        for (name, (calls, total, own)) in tr.self_times() {
            println!(
                "#   {name:<28} calls={calls:<10} total_ms={:<12.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    for (name, v, unit) in &metrics {
        println!("{workload}.{name} {v} {unit}");
    }

    let outcome = Outcome {
        correct,
        attempted,
        failed,
        digest: warm.digest,
        metrics,
    };
    if let Err(e) = write_outputs(args, workload, &prov, &outcome, &tr) {
        eprintln!("mcbench: could not write results under {OUT_DIR}: {e}");
    }
    outcome
}

/// Writes the result file, and in a traced run the spans.
fn write_outputs(
    args: &Args,
    workload: &str,
    prov: &[(&'static str, String)],
    o: &Outcome,
    tr: &Tracer,
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    let mode = if args.trace { "traced" } else { "untraced" };
    let stem = format!("{OUT_DIR}/{workload}-{mode}-seed{}", args.seed);
    std::fs::write(format!("{stem}.json"), result_json(prov, o))?;
    if args.trace {
        std::fs::write(format!("{stem}.spans.jsonl"), tr.to_jsonl())?;
    }
    Ok(())
}

/// The result file: provenance, outcome and metrics, one field a line.
fn result_json(prov: &[(&'static str, String)], o: &Outcome) -> String {
    let mut out = String::from("{\n  \"provenance\": {\n");
    for (i, (k, v)) in prov.iter().enumerate() {
        let comma = if i + 1 == prov.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{k}\": \"{v}\"{comma}");
    }
    let _ = writeln!(
        out,
        "  }},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},",
        o.correct, o.attempted, o.failed
    );
    let _ = writeln!(out, "  \"digest\": \"{}\",\n  \"metrics\": {{", o.digest);
    for (i, (name, v, unit)) in o.metrics.iter().enumerate() {
        let comma = if i + 1 == o.metrics.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    \"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}{comma}"
        );
    }
    out.push_str("  }\n}\n");
    out
}

/// The final result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}")
}

/// A parsed result file.
#[derive(Debug)]
struct ResultFile {
    /// Provenance fields, by name.
    prov: Vec<(String, String)>,
    /// Digest of the simulated outputs.
    digest: String,
    /// Metric values, by name.
    metrics: Vec<(String, f64)>,
}

/// Parses a result file this program wrote.
fn parse_result(text: &str) -> Result<ResultFile, String> {
    let mut r = ResultFile {
        prov: Vec::new(),
        digest: String::new(),
        metrics: Vec::new(),
    };
    let mut section = "";
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.starts_with('}') {
            section = "";
            continue;
        }
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"').to_string();
        let rest = rest.trim();
        match (key.as_str(), rest) {
            ("provenance", "{") => section = "provenance",
            ("metrics", "{") => section = "metrics",
            ("digest", _) if section.is_empty() => r.digest = rest.trim_matches('"').to_string(),
            _ if section == "provenance" => r.prov.push((key, rest.trim_matches('"').to_string())),
            _ if section == "metrics" => {
                let value = rest
                    .split_once("\"value\":")
                    .and_then(|(_, v)| v.split(',').next())
                    .and_then(|v| v.trim().parse::<f64>().ok())
                    .ok_or_else(|| format!("bad metric line {line}"))?;
                r.metrics.push((key, value));
            }
            _ => {}
        }
    }
    if r.prov.is_empty() || r.metrics.is_empty() {
        return Err("not a result file".into());
    }
    Ok(r)
}

/// Compares two results metric by metric, refusing when their provenance
/// differs in anything but the git revision under comparison. The table
/// says whether the simulated outputs are byte-identical.
fn compare(a: &ResultFile, b: &ResultFile) -> Result<String, String> {
    let diffs: Vec<String> = a
        .prov
        .iter()
        .filter(|(k, _)| k != "git_rev")
        .filter_map(|(k, va)| {
            let vb = b
                .prov
                .iter()
                .find(|(kb, _)| kb == k)
                .map(|(_, v)| v.as_str());
            (vb != Some(va.as_str())).then(|| format!("{k}: {va} vs {}", vb.unwrap_or("missing")))
        })
        .collect();
    if !diffs.is_empty() || a.prov.len() != b.prov.len() {
        return Err(format!(
            "refusing to compare results of differing provenance: {}",
            diffs.join("; ")
        ));
    }
    let rev = |p: &[(String, String)]| {
        p.iter()
            .find(|(k, _)| k == "git_rev")
            .map_or("?".into(), |(_, v)| v.clone())
    };
    let same = if a.digest == b.digest {
        "identical"
    } else {
        "differ"
    };
    let mut out = format!("simulated outputs: {same} ({} vs {})\n", a.digest, b.digest);
    let _ = writeln!(
        out,
        "{:<32} {:>16} {:>16} {:>9}",
        "metric",
        rev(&a.prov),
        rev(&b.prov),
        "change"
    );
    for (name, va) in &a.metrics {
        let Some((_, vb)) = b.metrics.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let change = if *va == 0.0 {
            0.0
        } else {
            (vb - va) / va * 100.0
        };
        let _ = writeln!(out, "{name:<32} {va:>16.6} {vb:>16.6} {change:>8.2}%");
    }
    Ok(out)
}

/// Reads, parses and compares two result files.
fn compare_files(a: &str, b: &str) -> Result<String, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_result(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    compare(&read(a)?, &read(b)?)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => match compare_files(a, b) {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("mcbench: {e}");
                    ExitCode::FAILURE
                }
            },
            _ => {
                eprintln!("{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mcbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .iter()
            .copied()
            .filter(|w| *w == args.workload)
            .collect()
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    for w in &workloads {
        let o = drive(w, &args);
        correct &= o.correct;
        attempted += o.attempted;
        failed += o.failed;
        let prefix = if workloads.len() > 1 {
            format!("{w}.")
        } else {
            String::new()
        };
        metrics.extend(
            o.metrics
                .into_iter()
                .map(|(n, v, u)| (format!("{prefix}{n}"), v, u)),
        );
    }
    println!("{}", result_line(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tracing must not change what is simulated: each workload at a
    /// small size yields the same digest with the recorder off and on.
    #[test]
    fn traced_and_untraced_digests_agree() {
        let small_sweep = sweep::Size {
            side: 4,
            rates: &[5.0, 25.0],
            txns_per_node: 5,
            workers: 2,
        };
        let run = |on: bool, f: &dyn Fn(&mut Tracer) -> Rep| {
            let mut tr = Tracer::new("test");
            tr.set(on, 0);
            f(&mut tr)
        };
        type Case = Box<dyn Fn(&mut Tracer) -> Rep>;
        let cases: Vec<Case> = vec![
            Box::new(|tr| {
                let size = serve::Size {
                    side: 2,
                    requests_per_node: 40,
                    chunk_records: 16,
                };
                serve::rep(3, size, tr)
            }),
            Box::new(move |tr| sweep::rep(3, &small_sweep, tr)),
            Box::new(|tr| {
                let size = cube::Size {
                    side: 3,
                    txns_per_node: 3,
                    remote_ops: 8,
                    workers: 2,
                };
                cube::rep(3, size, tr)
            }),
            Box::new(|tr| {
                let size = verify::Size {
                    check: (1, 2, 1),
                    xval: (1, 2),
                };
                verify::rep(size, tr)
            }),
        ];
        for case in &cases {
            let plain = run(false, case.as_ref());
            let traced = run(true, case.as_ref());
            assert_eq!(plain.failed, 0, "{}", plain.summary);
            assert_eq!(traced.failed, 0, "{}", traced.summary);
            assert!(plain.txns > 0, "{}", plain.summary);
            assert_eq!(
                plain.digest, traced.digest,
                "{}\n{}",
                plain.summary, traced.summary
            );
        }
    }

    #[test]
    fn compare_refuses_differing_provenance() {
        let outcome = Outcome {
            correct: true,
            attempted: 4,
            failed: 0,
            digest: "d".into(),
            metrics: vec![("wall_s", 2.0, "s"), ("setup_s", 0.5, "s")],
        };
        let prov = |rev: &str, seed: &str| {
            vec![
                ("nproc", "2".to_string()),
                ("git_rev", rev.to_string()),
                ("seed", seed.to_string()),
            ]
        };
        let parse =
            |p: Vec<(&'static str, String)>| parse_result(&result_json(&p, &outcome)).unwrap();
        let base = parse(prov("aaa", "1"));
        assert_eq!(base.digest, "d");
        assert_eq!(base.prov.len(), 3);
        assert_eq!(
            base.metrics,
            vec![("wall_s".to_string(), 2.0), ("setup_s".to_string(), 0.5)]
        );
        let table = compare(&base, &parse(prov("bbb", "1"))).expect("only the revision differs");
        assert!(table.contains("aaa") && table.contains("bbb") && table.contains("wall_s"));
        assert!(table.contains("identical"), "{table}");
        let err = compare(&base, &parse(prov("bbb", "2"))).unwrap_err();
        assert!(err.contains("seed: 1 vs 2"), "{err}");
        assert!(parse_result("{}").is_err());
    }

    #[test]
    fn args_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload cube --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("cube", 7, 3, true)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn trimmed_mean_drops_the_extremes_of_five_or_more() {
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(trimmed_mean(&[9.0, 1.0, 2.0, 4.0, 100.0]), 5.0);
        assert_eq!(trimmed_mean(&[]), 0.0);
    }

    #[test]
    fn scaled_time_divides_by_the_host_slowness() {
        let r = Rep {
            setup_ns: 3_000_000_000,
            scale: 1.5,
            ..Rep::default()
        };
        assert_eq!(r.scaled_s(r.setup_ns), 2.0);
    }
}
