//! `altc` — command-line driver for the ALT compiler.
//!
//! Compiles a model from the built-in zoo (or a named single operator)
//! for one of the machine profiles and reports the tuning outcome.
//!
//! ```text
//! altc --model r18 --platform intel --budget 400
//! altc --model r18 --budget 400 --jobs 8
//! altc --model mv2 --platform gpu --budget 200 --json
//! altc --model r18 --dot > r18.dot
//! altc --model r18 --budget 64 --trace r18.trace.jsonl
//! altc --model r18 --budget 64 --faults 0.2 --trace r18.trace.jsonl
//! altc --model r18 --budget 64 --journal r18.journal.jsonl
//! altc inspect r18.journal.jsonl
//! altc inspect r18.journal.jsonl --json
//! altc inspect r18.journal.jsonl --html r18.report.html
//! altc --model r18 --checkpoint ck.json --checkpoint-every 50
//! altc --model r18 --resume ck.json
//! altc report r18.trace.jsonl
//! altc profile --model r18 --budget 64 --perfetto r18.perfetto.json
//! altc run --model bt --native --check
//! altc run --model r18 --budget 64 --native --json
//! altc run --model r18 --native --check --check-cap 200000
//! altc verify --model r18 --json
//! altc verify --model mv2 --budget 32
//! altc verify --presets
//! altc --model r18 --budget 64 --store tune.altstore
//! altc store stats tune.altstore
//! altc store verify tune.altstore --json
//! altc store gc tune.altstore
//! altc store export tune.altstore
//! ```

use alt_autotune::{split_budget, NETWORK_JOINT_SHARE};
use alt_core::{CompileOptions, Compiler, JsonlSink};
use alt_models::{bert_base, bert_tiny, mobilenet_v2, resnet18, resnet3d_18};
use alt_sim::{arm_cpu, intel_cpu, nvidia_gpu, MachineProfile};
use alt_tensor::Graph;

struct Args {
    model: String,
    platform: String,
    budget: u64,
    batch: i64,
    seed: u64,
    json: bool,
    dot: bool,
    trace: Option<String>,
    journal: Option<String>,
    faults: f64,
    checkpoint: Option<String>,
    checkpoint_every: u64,
    resume: Option<String>,
    jobs: usize,
    no_verify: bool,
    advanced_layouts: bool,
    store: Option<String>,
    timing: Option<String>,
    manifest: Option<String>,
    progress: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        model: "r18".into(),
        platform: "intel".into(),
        budget: 300,
        batch: 1,
        seed: 0,
        json: false,
        dot: false,
        trace: None,
        journal: None,
        faults: 0.0,
        checkpoint: None,
        checkpoint_every: 0,
        resume: None,
        jobs: 1,
        no_verify: false,
        advanced_layouts: false,
        store: None,
        timing: None,
        manifest: None,
        progress: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--model" | "-m" => args.model = value("--model")?,
            "--platform" | "-p" => args.platform = value("--platform")?,
            "--budget" | "-b" => {
                args.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?
            }
            "--batch" => {
                args.batch = value("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--json" => args.json = true,
            "--dot" => args.dot = true,
            "--trace" => args.trace = Some(value("--trace")?),
            "--journal" => args.journal = Some(value("--journal")?),
            "--faults" => {
                args.faults = value("--faults")?
                    .parse()
                    .map_err(|e| format!("--faults: {e}"))?;
                if !(0.0..1.0).contains(&args.faults) {
                    return Err("--faults must be in [0, 1)".into());
                }
            }
            "--checkpoint" => args.checkpoint = Some(value("--checkpoint")?),
            "--checkpoint-every" => {
                args.checkpoint_every = value("--checkpoint-every")?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            "--resume" => args.resume = Some(value("--resume")?),
            "--jobs" | "-j" => {
                args.jobs = value("--jobs")?
                    .parse()
                    .map_err(|e| format!("--jobs: {e}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--no-verify" => args.no_verify = true,
            "--advanced-layouts" => args.advanced_layouts = true,
            "--store" => args.store = Some(value("--store")?),
            "--timing" => args.timing = Some(value("--timing")?),
            "--manifest" => args.manifest = Some(value("--manifest")?),
            "--progress" => args.progress = true,
            "--help" | "-h" => {
                print_help();
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    // `--store` beats the environment; an empty ALT_STORE means "off".
    if args.store.is_none() {
        args.store = std::env::var("ALT_STORE").ok().filter(|s| !s.is_empty());
    }
    Ok(args)
}

fn print_help() {
    println!(
        "altc — ALT deep-learning compiler (EuroSys '23 reproduction)

USAGE:
    altc [OPTIONS]
    altc report <TRACE.jsonl>
    altc profile [OPTIONS]

OPTIONS:
    -m, --model <NAME>       r18 | mv2 | bert-base | bert-tiny | r3d  [default: r18]
    -p, --platform <NAME>    intel | gpu | arm                        [default: intel]
    -b, --budget <N>         total tuning measurements                [default: 300]
        --batch <N>          batch size                               [default: 1]
        --seed <N>           tuning seed                              [default: 0]
        --json               machine-readable output
        --dot                print the model graph in DOT format and exit
        --trace <PATH>       write a JSONL tuning trace (inspect with `altc report`)
        --journal <PATH>     write a JSONL search journal: one record per
                             generated candidate with its terminal outcome
                             (measured / cache_hit / verify_rejected / failed /
                             skipped), plus layout visits and commits; a
                             resumed run appends to its predecessor's journal
                             (inspect with `altc inspect`)
        --faults <RATE>      inject faults (compile failures, timeouts, noisy
                             latencies) into that fraction of measurements; the
                             tuner retries, quarantines repeat offenders, and
                             still completes within its exact budget [default: 0]
        --checkpoint <PATH>  periodically write resumable tuner state here
        --checkpoint-every <N>  checkpoint every N consumed budget units [default: 50
                             when --checkpoint is set]
        --resume <PATH>      resume tuning from a checkpoint written by a run
                             with the same model, platform, seed, and budget
    -j, --jobs <N>           worker threads for candidate measurement; any N
                             produces bit-identical results, traces, and
                             accounting (workers only prewarm the memoized
                             simulation cache)                        [default: 1]
        --no-verify          skip the static pre-simulation verifier (layout
                             legality, IR well-formedness, race detection)
                             when filtering tuning candidates
        --advanced-layouts   add the `xform` knob to every layout template:
                             XOR swizzle, block-diagonal remap, and Morton
                             interleave become searchable alongside the
                             tiling factors (every winner still passes the
                             static verifier)
        --store <PATH>       durable tuning store: measurements are served
                             from (and published to) this crash-safe segment
                             file, and a finished run stores its winner so an
                             identical later run warm-starts without spending
                             any budget; also read from the ALT_STORE
                             environment variable (flag wins)
        --timing <PATH>      write the wall-clock self-profile (phase tree +
                             store/simulation latency histograms) as JSONL;
                             observation-only — winners, traces and journals
                             are bit-identical with or without it
        --manifest <PATH>    write the machine-readable per-run timing
                             manifest (phase totals, wall histograms, env,
                             config fingerprint) as JSON; implies timing
        --progress           print a throttled live heartbeat to stderr:
                             budget fraction, candidates/s, cache and store
                             hit rates, ETA
    -h, --help               this message

SUBCOMMANDS:
    report <TRACE.jsonl>     summarize a tuning trace: best-latency curve
                             per op, budget per stage, cost-model accuracy
                             per round, and cache/prefetch counters
    inspect <JOURNAL.jsonl>  tuning-run introspection from a search journal:
                             budget accounting, convergence (plateau, budget
                             to within 5% of final), cost-model calibration
                             (rolling Spearman, calibration table, worst
                             mispredictions) and joint-space coverage;
                             --json for machine-readable output, --html OUT
                             for a self-contained HTML report
    profile [OPTIONS]        tune a model, then print the winning schedule's
                             per-loop cost breakdown and roofline summary;
                             `altc profile --help` lists its options
                             (--no-tune, --json, --perfetto OUT.json)
    verify [OPTIONS]         statically verify a compiled model (or the
                             layout preset library with --presets) and
                             report every diagnostic; exits non-zero if
                             any is found; `altc verify --help` for options
    store <CMD> <PATH>       inspect and maintain a durable tuning store:
                             `stats` (record/byte counts and recovery
                             summary), `verify` (deep frame-by-frame check,
                             exits 1 on corruption), `gc` (compact and drop
                             the quarantine file), `export` (JSONL record
                             dump); all accept --json"
    );
}

/// `altc run`: compile a model and execute it on real data — through the
/// native kernel executor (`--native`), the reference interpreter, or
/// both with a bit-exact differential check (`--check`). With `--native`
/// also prints the kernel's [`KernelStats`](alt_codegen::KernelStats)
/// (groups, integer and float ops, walks, typed, register-tiled and row walks) and the
/// per-op calibration table (native wall clock vs the analytic model's
/// prediction).
#[allow(clippy::too_many_lines)]
fn run_run(rest: &[String]) -> i32 {
    let mut model = "r18".to_string();
    let mut platform = "intel".to_string();
    let mut budget = 0u64;
    let mut batch = 1i64;
    let mut seed = 0u64;
    let mut native = false;
    let mut check = false;
    let mut check_cap: Option<u64> = None;
    let mut threads = 0usize;
    let mut json = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let res: Result<(), String> = (|| {
            match a.as_str() {
                "--model" | "-m" => model = value("--model")?,
                "--platform" | "-p" => platform = value("--platform")?,
                "--budget" | "-b" => {
                    budget = value("--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?
                }
                "--batch" => {
                    batch = value("--batch")?
                        .parse()
                        .map_err(|e| format!("--batch: {e}"))?
                }
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--native" => native = true,
                "--check" => check = true,
                "--check-cap" => {
                    check_cap = Some(
                        value("--check-cap")?
                            .parse()
                            .map_err(|e| format!("--check-cap: {e}"))?,
                    )
                }
                "--threads" => {
                    threads = value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?
                }
                "--json" => json = true,
                "--help" | "-h" => {
                    println!(
                        "usage: altc run [--model NAME] [--platform NAME] [--budget N]\n\
                         \x20               [--batch N] [--seed N] [--native] [--check]\n\
                         \x20               [--check-cap ITERS] [--threads N] [--json]\n\
                         \n\
                         Compiles the model (tuning when --budget > 0, unoptimized\n\
                         otherwise) and executes it on random bindings. --native runs\n\
                         the compiled register-based kernel (stride-resolved loops,\n\
                         statement nests run as strided walks whose innermost loop\n\
                         runs a row at a time where the row rule allows, scoped-thread\n\
                         @par), prints the kernel's shape (with the walks, the loop\n\
                         levels they cover and those run in rows) and per-op\n\
                         calibration against the analytic cost model; the default runs\n\
                         the reference interpreter. --check runs both and fails unless\n\
                         outputs are bit-identical; --check-cap truncates the program\n\
                         to a statement-iteration budget first so large models stay\n\
                         affordable for the interpreter side."
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument `{other}` (try --help)")),
            }
            Ok(())
        })();
        if let Err(e) = res {
            eprintln!("error: {e}");
            return 2;
        }
    }

    let graph = match build_model(&model, batch) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let machine = match build_platform(&platform) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    let (joint_budget, loop_budget) = split_budget(budget, NETWORK_JOINT_SHARE);
    let compiler = Compiler::new(machine).with_options(CompileOptions {
        joint_budget,
        loop_budget,
        seed,
        ..CompileOptions::default()
    });
    let compiled = if budget == 0 {
        compiler.compile_unoptimized(&graph)
    } else {
        eprintln!(
            "tuning {model} (batch {batch}) for {} with budget {budget}...",
            machine.name
        );
        compiler.compile(&graph)
    };

    let program = match check_cap {
        Some(cap) => compiled.program().truncated(cap),
        None => compiled.program().clone(),
    };
    let bindings = alt_tensor::exec::random_bindings(&graph, seed);
    let threads = if threads == 0 {
        alt_codegen::default_threads()
    } else {
        threads
    };

    let mut interp_us: Option<f64> = None;
    let interp_out = if check || !native {
        let t = std::time::Instant::now();
        let r = alt_loopir::run_program(&program, &graph, compiled.plan(), &bindings);
        interp_us = Some(t.elapsed().as_secs_f64() * 1e6);
        Some(r)
    } else {
        None
    };

    let native_res = if native || check {
        let kernel = alt_codegen::compile(&program, compiled.target_profile());
        let (r, stats) = kernel.run(&program, &graph, compiled.plan(), &bindings, threads);
        let breakdown = alt_sim::Simulator::new(machine).profile_program(&program);
        let table = alt_sim::calibrate(&breakdown, &stats.group_us);
        Some((r, stats, table, kernel.stats()))
    } else {
        None
    };

    let mut check_passed = None;
    if check {
        let (want, got) = match (&interp_out, &native_res) {
            (Some(w), Some((g, ..))) => (w, g),
            _ => unreachable!("--check runs both executors"),
        };
        let mut mismatches = 0usize;
        for (t, w) in want {
            let n = &got[t];
            for (a, b) in w.data().iter().zip(n.data()) {
                if a.to_bits() != b.to_bits() {
                    mismatches += 1;
                    break;
                }
            }
        }
        check_passed = Some(mismatches == 0);
        if mismatches > 0 {
            eprintln!("check FAILED: {mismatches} tensor(s) differ between interpreter and native");
        }
    }

    if json {
        let j = serde_json::json!({
            "model": model,
            "platform": machine.name,
            "batch": batch,
            "budget": budget,
            "seed": seed,
            "threads": threads,
            "stmt_iterations": program.total_stmt_iterations(),
            "estimated_latency_s": compiled.estimated_latency(),
        });
        let mut j = j;
        let serde_json::Value::Object(obj) = &mut j else {
            unreachable!("run report is a JSON object");
        };
        if let Some(us) = interp_us {
            obj.insert("interp_us".into(), serde_json::json!(us));
        }
        if let Some((_, stats, table, k)) = &native_res {
            obj.insert("native_us".into(), serde_json::json!(stats.total_us));
            obj.insert(
                "kernel".into(),
                serde_json::json!({
                    "groups": k.groups,
                    "iops": k.iops,
                    "fops": k.fops,
                    "walks": k.walks,
                    "typed_loops": k.typed_loops,
                    "tiled": k.tiled,
                    "walk_levels": k.walk_levels,
                    "row_walks": k.row_walks,
                    "par_loops": k.par_loops,
                }),
            );
            obj.insert("pack_us".into(), serde_json::json!(stats.pack_us));
            obj.insert("unpack_us".into(), serde_json::json!(stats.unpack_us));
            obj.insert("native_calibration".into(), table.to_json());
            if let Some(us) = interp_us {
                obj.insert(
                    "native_vs_interp_x".into(),
                    serde_json::json!(us / stats.total_us.max(1e-9)),
                );
            }
        }
        if let Some(ok) = check_passed {
            obj.insert(
                "check".into(),
                serde_json::json!(if ok { "pass" } else { "fail" }),
            );
        }
        let rendered = serde_json::to_string_pretty(&j).expect("run report serializes");
        println!("{rendered}");
    } else {
        println!(
            "{model} (batch {batch}) on {}: {} groups, {} stmt iterations",
            machine.name,
            program.groups.len(),
            program.total_stmt_iterations()
        );
        if let Some(us) = interp_us {
            println!("interp: {us:.1} us");
        }
        if let Some((_, stats, table, k)) = &native_res {
            println!(
                "kernel: {} groups, {} integer ops, {} float ops, {} walks \
                 ({} typed multiply-accumulate, {} register-tiled, {} in rows) \
                 over {} walk_levels, {} parallel loops",
                k.groups,
                k.iops,
                k.fops,
                k.walks,
                k.typed_loops,
                k.tiled,
                k.row_walks,
                k.walk_levels,
                k.par_loops
            );
            println!(
                "native: {:.1} us ({} threads); pack {:.1} us, unpack {:.1} us",
                stats.total_us, stats.threads, stats.pack_us, stats.unpack_us
            );
            if let Some(us) = interp_us {
                println!(
                    "native speedup vs interp: {:.1}x",
                    us / stats.total_us.max(1e-9)
                );
            }
            println!(
                "calibration vs {}: predicted {:.1} us, measured {:.1} us, ratio {:.2}",
                table.machine, table.predicted_total_us, table.measured_total_us, table.ratio
            );
        }
        if let Some(ok) = check_passed {
            println!(
                "check: {}",
                if ok { "PASS (bit-identical)" } else { "FAIL" }
            );
        }
    }
    i32::from(check_passed == Some(false))
}

/// `altc profile`: tune (or just lower) a model, then print the per-loop
/// cost attribution and roofline summary, optionally exporting a
/// Chrome-trace (Perfetto) JSON of the tuning run and simulated execution.
fn run_profile(rest: &[String]) -> i32 {
    let mut model = "r18".to_string();
    let mut platform = "intel".to_string();
    let mut budget = 64u64;
    let mut batch = 1i64;
    let mut seed = 0u64;
    let mut no_tune = false;
    let mut json = false;
    let mut perfetto: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let res: Result<(), String> = (|| {
            match a.as_str() {
                "--model" | "-m" => model = value("--model")?,
                "--platform" | "-p" => platform = value("--platform")?,
                "--budget" | "-b" => {
                    budget = value("--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?
                }
                "--batch" => {
                    batch = value("--batch")?
                        .parse()
                        .map_err(|e| format!("--batch: {e}"))?
                }
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--no-tune" => no_tune = true,
                "--json" => json = true,
                "--perfetto" => perfetto = Some(value("--perfetto")?),
                "--help" | "-h" => {
                    println!(
                        "usage: altc profile [--model NAME] [--platform NAME] [--budget N]\n\
                         \x20                   [--batch N] [--seed N] [--no-tune] [--json]\n\
                         \x20                   [--perfetto OUT.json]\n\
                         \n\
                         Prints the winning schedule's per-loop cost breakdown (flame-style\n\
                         tree) and roofline summary. --no-tune profiles the unoptimized\n\
                         baseline instead of tuning first. --perfetto also writes a\n\
                         Chrome-trace JSON loadable in ui.perfetto.dev."
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument `{other}` (try --help)")),
            }
            Ok(())
        })();
        if let Err(e) = res {
            eprintln!("error: {e}");
            return 2;
        }
    }

    let graph = match build_model(&model, batch) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let machine = match build_platform(&platform) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };

    // Capture the tuning-run records in memory so the Perfetto export can
    // interleave the tuning timeline with the simulated execution.
    let sink = std::sync::Arc::new(alt_core::MemorySink::new());
    let (joint_budget, loop_budget) = split_budget(budget, NETWORK_JOINT_SHARE);
    let compiler = Compiler::new(machine)
        .with_options(CompileOptions {
            joint_budget,
            loop_budget,
            seed,
            ..CompileOptions::default()
        })
        .with_telemetry(sink.clone());
    let compiled = if no_tune {
        compiler.compile_unoptimized(&graph)
    } else {
        eprintln!(
            "tuning {model} (batch {batch}) for {} with budget {budget}...",
            machine.name
        );
        compiler.compile(&graph)
    };

    let breakdown = compiled.profile_breakdown(machine);
    let profile = alt_profiler::Profile::new(breakdown, &machine);

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&alt_profiler::summary_json(&profile)).unwrap()
        );
    } else {
        print!("{}", alt_profiler::render_text(&profile));
    }

    if let Some(path) = &perfetto {
        let mut records = sink.records();
        records.extend(alt_profiler::to_records(&profile));
        match alt_telemetry::write_chrome_trace(path, &records) {
            Ok(()) => eprintln!("chrome trace written to {path}; open in ui.perfetto.dev"),
            Err(e) => {
                eprintln!("error: --perfetto {path}: {e}");
                return 2;
            }
        }
    }
    0
}

/// `altc inspect <journal.jsonl>`: full tuning-run introspection from a
/// search journal — budget accounting, convergence, cost-model
/// calibration and joint-space coverage.
fn run_inspect(rest: &[String]) -> i32 {
    const USAGE: &str = "usage: altc inspect <JOURNAL.jsonl> [--json] [--html OUT.html]";
    let mut path: Option<String> = None;
    let mut json = false;
    let mut html: Option<String> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--html" => match it.next() {
                Some(out) => html = Some(out.clone()),
                None => {
                    eprintln!("error: --html requires a value");
                    return 2;
                }
            },
            "--help" | "-h" => {
                println!(
                    "{USAGE}\n\n\
                     Reads a search journal written by `altc --journal PATH` and prints\n\
                     convergence diagnostics (best-so-far curve, plateau detection,\n\
                     budget-to-within-5%-of-final), cost-model calibration (rolling\n\
                     Spearman rank correlation, predicted-vs-measured calibration\n\
                     table, worst mispredictions) and joint-space coverage (per-op,\n\
                     per-provenance, per-axis exploration). --json emits the full\n\
                     diagnostics object; --html writes a self-contained single-file\n\
                     HTML report (inline CSS/JS, no network access needed)."
                );
                std::process::exit(0);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return 2;
    };
    let records = match alt_journal::read_journal(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let insp = alt_journal::inspect(&records);
    if let Some(out) = &html {
        if let Err(e) = std::fs::write(out, alt_journal::render_html(&insp)) {
            eprintln!("error: --html {out}: {e}");
            return 2;
        }
        eprintln!("html report written to {out}");
    }
    if json {
        println!("{}", serde_json::to_string_pretty(&insp).unwrap());
    } else if html.is_none() {
        print!("{}", alt_journal::render_text(&insp));
    }
    0
}

/// `altc report <trace.jsonl>`: render a recorded tuning trace.
fn run_report(rest: &[String]) -> i32 {
    let path = match rest {
        [p] if p != "--help" && p != "-h" => p,
        _ => {
            eprintln!("usage: altc report <TRACE.jsonl>");
            return 2;
        }
    };
    match alt_telemetry::read_jsonl(path) {
        Ok(records) => {
            print!("{}", alt_telemetry::render_report(&records));
            0
        }
        Err(e) => {
            eprintln!("error: {path}: {e}");
            2
        }
    }
}

/// Checks every constructor in the layout preset library over
/// representative tensor shapes: construction must succeed and the
/// resulting primitive chain must replay cleanly under `revalidate`.
fn verify_presets() -> Vec<alt_verify::Diagnostic> {
    use alt_layout::presets;
    use alt_tensor::Shape;

    let s4 = || Shape::new([2, 16, 12, 12]);
    let s5 = || Shape::new([2, 16, 6, 12, 12]);
    let s3 = || Shape::new([2, 16, 12]);
    let s2 = || Shape::new([24, 36]);
    let built: Vec<(&str, Result<alt_layout::Layout, alt_layout::LayoutError>)> = vec![
        ("nohw", Ok(presets::nohw(s4()))),
        ("nhwo", presets::nhwo(s4())),
        ("hwon", presets::hwon(s4())),
        ("ndhwo", presets::ndhwo(s5())),
        ("nwo", presets::nwo(s3())),
        ("channels_last", presets::channels_last(s4())),
        ("channel_tiled", presets::channel_tiled(s4(), 4)),
        ("c2d_output_tiled", presets::c2d_output_tiled(s4(), 4, 4, 4)),
        (
            "c2d_input_tiled",
            presets::c2d_input_tiled(s4(), 4, 5, 5, 1, 3, 3),
        ),
        (
            "c2d_weight_tiled",
            presets::c2d_weight_tiled(Shape::new([16, 16, 3, 3]), 4, 4),
        ),
        ("transposed2d", presets::transposed2d(s2())),
        ("gmm_tiled", presets::gmm_tiled(s2(), 4, 4)),
        (
            "conv_output_tiled_nd",
            presets::conv_output_tiled_nd(s4(), &[4, 4], 4),
        ),
        (
            "conv_input_tiled_nd",
            presets::conv_input_tiled_nd(s4(), 4, &[4, 4], &[1, 1], &[3, 3]),
        ),
        (
            "conv_weight_tiled_nd",
            presets::conv_weight_tiled_nd(Shape::new([16, 16, 3, 3]), 4, 4),
        ),
        (
            "tconv_weight_tiled_nd",
            presets::tconv_weight_tiled_nd(Shape::new([16, 16, 3, 3]), 4, 4),
        ),
        (
            "batch_gmm_tiled",
            presets::batch_gmm_tiled(Shape::new([2, 24, 36]), 4, 4),
        ),
        (
            "conv_output_tiled2_nd",
            presets::conv_output_tiled2_nd(Shape::new([2, 16, 16, 16]), &[4, 4], &[2, 2], 4, 2),
        ),
        (
            "channel_tiled_swizzled",
            presets::channel_tiled_swizzled(s4(), 4, 2),
        ),
        (
            "morton_spatial",
            presets::morton_spatial(Shape::new([2, 16, 16, 16])),
        ),
        ("block_diag_rotated", presets::block_diag_rotated(s4(), 3)),
    ];

    let mut diags = Vec::new();
    for (name, layout) in built {
        let group = format!("preset `{name}`");
        match layout {
            Err(e) => diags.push(alt_verify::Diagnostic::new(
                alt_verify::code_for(&e),
                group,
                format!("construction failed: {e}"),
            )),
            Ok(l) => {
                if let Err(e) = l.revalidate() {
                    diags.push(alt_verify::Diagnostic::new(
                        alt_verify::code_for(&e),
                        group,
                        format!("illegal primitive chain: {e}"),
                    ));
                }
            }
        }
    }
    diags
}

/// `altc verify`: statically verify a model's compiled artifact (layout
/// legality, IR well-formedness, race detection) or, with `--presets`,
/// the built-in layout preset library. Exits 1 if any diagnostic fires.
fn run_verify(rest: &[String]) -> i32 {
    let mut model = "r18".to_string();
    let mut platform = "intel".to_string();
    let mut budget = 0u64;
    let mut batch = 1i64;
    let mut seed = 0u64;
    let mut json = false;
    let mut presets = false;
    let mut explain = false;
    let mut advanced_layouts = false;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let res: Result<(), String> = (|| {
            match a.as_str() {
                "--model" | "-m" => model = value("--model")?,
                "--platform" | "-p" => platform = value("--platform")?,
                "--budget" | "-b" => {
                    budget = value("--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?
                }
                "--batch" => {
                    batch = value("--batch")?
                        .parse()
                        .map_err(|e| format!("--batch: {e}"))?
                }
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--json" => json = true,
                "--presets" => presets = true,
                "--explain" => explain = true,
                "--advanced-layouts" => advanced_layouts = true,
                "--help" | "-h" => {
                    println!(
                        "usage: altc verify [--model NAME] [--platform NAME] [--budget N]\n\
                         \x20                  [--batch N] [--seed N] [--json] [--presets]\n\
                         \x20                  [--explain] [--advanced-layouts]\n\
                         \n\
                         Runs the static verifier (layout legality, IR well-formedness,\n\
                         dependence-based race detection) over the model's compiled\n\
                         artifact. --budget 0 (the default) verifies the unoptimized\n\
                         lowering; a positive budget tunes first and verifies the winning\n\
                         layouts and schedules. --presets instead checks every layout\n\
                         preset constructor. --explain prints, for every diagnostic the\n\
                         integer-set engine proved, a concrete loop-index witness\n\
                         demonstrating the violation. --advanced-layouts tunes with the\n\
                         `xform` knob (swizzle / block-diagonal / Morton) enabled before\n\
                         verifying. Exit code 1 means diagnostics were found."
                    );
                    std::process::exit(0);
                }
                other => return Err(format!("unknown argument `{other}` (try --help)")),
            }
            Ok(())
        })();
        if let Err(e) = res {
            eprintln!("error: {e}");
            return 2;
        }
    }

    let (subject, diags, stats) = if presets {
        (
            "presets".to_string(),
            verify_presets(),
            alt_verify::VerifyStats::default(),
        )
    } else {
        let graph = match build_model(&model, batch) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let machine = match build_platform(&platform) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return 2;
            }
        };
        let (joint_budget, loop_budget) = split_budget(budget, NETWORK_JOINT_SHARE);
        let compiler = Compiler::new(machine).with_options(CompileOptions {
            joint_budget,
            loop_budget,
            seed,
            advanced_layouts,
            ..CompileOptions::default()
        });
        let compiled = if budget == 0 {
            compiler.compile_unoptimized(&graph)
        } else {
            eprintln!(
                "tuning {model} (batch {batch}) for {} with budget {budget}...",
                machine.name
            );
            compiler.compile(&graph)
        };
        let (diags, stats) = compiled.verify_with_stats();
        (format!("{model} on {}", machine.name), diags, stats)
    };

    if json {
        let stats_json = serde_json::json!({
            "verify.set_queries": stats.set_queries,
            "verify.set_emptiness_us": stats.set_emptiness_us,
            "verify.conservative_recovered": stats.conservative_recovered,
        });
        let record = serde_json::json!({
            "subject": subject,
            "ok": diags.is_empty(),
            "diagnostics": diags
                .iter()
                .map(|d| {
                    serde_json::json!({
                        "code": d.code,
                        "group": d.group,
                        "detail": d.detail,
                        "witness": d.witness,
                    })
                })
                .collect::<Vec<_>>(),
            "stats": stats_json,
        });
        println!("{}", serde_json::to_string_pretty(&record).unwrap());
    } else {
        if diags.is_empty() {
            println!("{subject}: ok (no diagnostics)");
        } else {
            println!("{subject}: {} diagnostic(s)", diags.len());
            for d in &diags {
                println!("  {d}");
                if explain {
                    match &d.witness {
                        Some(w) => println!("    witness: {w}"),
                        None => println!("    witness: (none — interval verdict)"),
                    }
                }
            }
        }
        if explain {
            println!(
                "set engine: {} queries, {} us, {} conservative rejection(s) recovered",
                stats.set_queries, stats.set_emptiness_us, stats.conservative_recovered
            );
        }
    }
    i32::from(!diags.is_empty())
}

/// `altc store <stats|verify|gc|export> <PATH> [--json]`: inspect and
/// maintain a durable tuning store without running a compile.
fn run_store(rest: &[String]) -> i32 {
    const USAGE: &str = "usage: altc store <stats|verify|gc|export> <STORE> [--json]";
    let mut cmd: Option<String> = None;
    let mut path: Option<String> = None;
    let mut json = false;
    for a in rest {
        match a.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                println!(
                    "{USAGE}\n\n\
                     stats    record counts per kind, payload/file/quarantine bytes,\n\
                     \x20        and what recovery found when the store was opened\n\
                     verify   deep frame-by-frame integrity check (header, lengths,\n\
                     \x20        checksums); exits 1 when any corruption is found\n\
                     gc       rewrite the segment to drop superseded bytes and\n\
                     \x20        remove the quarantine file\n\
                     export   dump every record as one JSON object per line\n\
                     \n\
                     The store path can also come from the ALT_STORE environment\n\
                     variable when the positional argument is omitted."
                );
                return 0;
            }
            other if !other.starts_with('-') && cmd.is_none() => cmd = Some(other.to_string()),
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }
    let Some(cmd) = cmd else {
        eprintln!("{USAGE}");
        return 2;
    };
    let path = path.or_else(|| std::env::var("ALT_STORE").ok().filter(|s| !s.is_empty()));
    let Some(path) = path else {
        eprintln!("error: no store path (pass one or set ALT_STORE)");
        return 2;
    };
    let p = std::path::Path::new(&path);

    match cmd.as_str() {
        "stats" => {
            let store = match alt_store::Store::open_readonly(p) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let s = store.stats();
            if json {
                let record = serde_json::json!({
                    "path": path,
                    "records": s.records,
                    "measurements": s.measurements,
                    "winners": s.winners,
                    "unknown": s.unknown,
                    "payload_bytes": s.payload_bytes,
                    "file_bytes": s.file_bytes,
                    "quarantine_bytes": s.quarantine_bytes,
                    "recovery": serde_json::json!({
                        "valid_records": s.recovery.valid_records,
                        "corrupt_events": s.recovery.corrupt_events,
                        "quarantined_bytes": s.recovery.quarantined_bytes,
                        "pending_tail_bytes": s.recovery.pending_tail_bytes,
                        "corruption": s.recovery.corruption.map(|c| c.to_string()),
                    }),
                });
                println!("{}", serde_json::to_string_pretty(&record).unwrap());
            } else {
                println!("{path}:");
                println!(
                    "  {} records ({} measurements, {} winners{})",
                    s.records,
                    s.measurements,
                    s.winners,
                    if s.unknown > 0 {
                        format!(", {} unknown", s.unknown)
                    } else {
                        String::new()
                    }
                );
                println!(
                    "  {} payload bytes in a {}-byte segment",
                    s.payload_bytes, s.file_bytes
                );
                match s.recovery.corruption {
                    Some(c) => println!(
                        "  recovery: {} valid records kept, {} tail bytes pending ({c})",
                        s.recovery.valid_records, s.recovery.pending_tail_bytes
                    ),
                    None => println!("  recovery: clean"),
                }
                if s.quarantine_bytes > 0 {
                    println!(
                        "  quarantine: {} bytes (drop with `altc store gc`)",
                        s.quarantine_bytes
                    );
                }
            }
            0
        }
        "verify" => {
            let r = match alt_store::verify_path(p) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            let clean = r.clean();
            if json {
                let record = serde_json::json!({
                    "path": path,
                    "ok": clean,
                    "header": format!("{:?}", r.header),
                    "valid_records": r.valid_records,
                    "valid_bytes": r.valid_bytes,
                    "tail_bytes": r.tail_bytes,
                    "corruption": r.corruption.map(|c| c.to_string()),
                    "quarantine_bytes": r.quarantine_bytes,
                });
                println!("{}", serde_json::to_string_pretty(&record).unwrap());
            } else if clean {
                println!(
                    "{path}: ok ({} records, {} bytes)",
                    r.valid_records, r.valid_bytes
                );
            } else {
                println!(
                    "{path}: {} valid records ({} bytes), then {} corrupt tail bytes{}",
                    r.valid_records,
                    r.valid_bytes,
                    r.tail_bytes,
                    r.corruption.map(|c| format!(" ({c})")).unwrap_or_default()
                );
                println!("  a writer open will quarantine the tail and continue");
            }
            i32::from(!clean)
        }
        "gc" => {
            let store = match alt_store::Store::open(p) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            match store.gc() {
                Ok(g) => {
                    if json {
                        let record = serde_json::json!({
                            "path": path,
                            "records": g.records,
                            "bytes_before": g.bytes_before,
                            "bytes_after": g.bytes_after,
                            "quarantine_removed": g.quarantine_removed,
                        });
                        println!("{}", serde_json::to_string_pretty(&record).unwrap());
                    } else {
                        println!(
                            "{path}: {} records, {} -> {} bytes, {} quarantine bytes removed",
                            g.records, g.bytes_before, g.bytes_after, g.quarantine_removed
                        );
                    }
                    0
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    2
                }
            }
        }
        "export" => {
            let store = match alt_store::Store::open_readonly(p) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            for r in store.records() {
                let decoded = match r.kind {
                    alt_store::kind::MEASUREMENT => alt_sim::decode_measurement(&r.payload).map(
                        |(profile_fp, program_fp, c)| {
                            serde_json::json!({
                                "profile_fp": format!("{profile_fp:016x}"),
                                "program_fp": format!("{program_fp:016x}"),
                                "latency_s": c.latency_s,
                                "instructions": c.instructions,
                                "flops": c.flops,
                            })
                        },
                    ),
                    alt_store::kind::WINNER => std::str::from_utf8(&r.payload)
                        .ok()
                        .and_then(|t| serde_json::from_str::<serde_json::Value>(t).ok()),
                    _ => None,
                };
                let record = serde_json::json!({
                    "kind": alt_store::kind::name(r.kind),
                    "key": format!("{:016x}", r.key),
                    "payload_bytes": r.payload.len(),
                    "decoded": decoded,
                });
                println!("{}", serde_json::to_string(&record).unwrap());
            }
            0
        }
        other => {
            eprintln!("error: unknown store command `{other}` (try --help)");
            2
        }
    }
}

fn build_model(name: &str, batch: i64) -> Result<Graph, String> {
    Ok(match name {
        "r18" | "resnet18" => resnet18(batch),
        "mv2" | "mobilenetv2" => mobilenet_v2(batch),
        "bert-base" | "bb" => bert_base(batch),
        "bert-tiny" | "bt" => bert_tiny(batch),
        "r3d" | "resnet3d" => resnet3d_18(batch),
        other => return Err(format!("unknown model `{other}` (try --help)")),
    })
}

fn build_platform(name: &str) -> Result<MachineProfile, String> {
    Ok(match name {
        "intel" | "cpu" => intel_cpu(),
        "gpu" | "nvidia" => nvidia_gpu(),
        "arm" => arm_cpu(),
        other => return Err(format!("unknown platform `{other}` (try --help)")),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("report") {
        std::process::exit(run_report(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("inspect") {
        std::process::exit(run_inspect(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("profile") {
        std::process::exit(run_profile(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("run") {
        std::process::exit(run_run(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("verify") {
        std::process::exit(run_verify(&argv[1..]));
    }
    if argv.first().map(String::as_str) == Some("store") {
        std::process::exit(run_store(&argv[1..]));
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let graph = match build_model(&args.model, args.batch) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.dot {
        print!("{}", alt_tensor::viz::to_dot(&graph));
        return;
    }
    let profile = match build_platform(&args.platform) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    let (joint_budget, loop_budget) = split_budget(args.budget, NETWORK_JOINT_SHARE);
    // A checkpoint path without an explicit interval still wants periodic
    // writes, not just halt-time ones.
    let checkpoint_every = match (args.checkpoint_every, &args.checkpoint) {
        (0, Some(_)) => 50,
        (n, _) => n,
    };
    if let Some(path) = &args.resume {
        if !std::path::Path::new(path).exists() {
            eprintln!("error: --resume {path}: no such file");
            std::process::exit(2);
        }
    }
    let compiler = Compiler::new(profile).with_options(CompileOptions {
        joint_budget,
        loop_budget,
        seed: args.seed,
        fault_rate: args.faults,
        checkpoint: args.checkpoint.clone(),
        checkpoint_every,
        resume: args.resume.clone(),
        jobs: args.jobs,
        verify: !args.no_verify,
        advanced_layouts: args.advanced_layouts,
        journal: args.journal.clone(),
        store: args.store.clone(),
        // An unopenable trace path degrades to a warning inside
        // `compile` (the run continues trace-less), matching the
        // journal and store contracts.
        trace: args.trace.clone(),
        timing: args.timing.is_some() || args.manifest.is_some(),
        progress: args.progress,
        ..CompileOptions::default()
    });

    eprintln!(
        "compiling {} (batch {}) for {} with budget {}...",
        args.model, args.batch, profile.name, args.budget
    );
    let t0 = std::time::Instant::now();
    let unopt = compiler.compile_unoptimized(&graph);
    let compiled = compiler.compile(&graph);
    let wall = t0.elapsed();

    if args.json {
        let record = serde_json::json!({
            "model": args.model,
            "platform": profile.name,
            "batch": args.batch,
            "budget": args.budget,
            "measurements": compiled.measurements(),
            "latency_ms": compiled.estimated_latency() * 1e3,
            "unoptimized_latency_ms": unopt.estimated_latency() * 1e3,
            "speedup": unopt.estimated_latency() / compiled.estimated_latency(),
            "compile_wall_s": wall.as_secs_f64(),
            "warm_start": compiled.warm_start(),
            "store_hits": compiled.store_stats().0,
            "store_misses": compiled.store_stats().1,
        });
        println!("{}", serde_json::to_string_pretty(&record).unwrap());
    } else {
        print!("{}", compiled.report());
        println!(
            "\nunoptimized: {:.3} ms -> tuned: {:.3} ms ({:.2}x, compiled in {:.1?})",
            unopt.estimated_latency() * 1e3,
            compiled.estimated_latency() * 1e3,
            unopt.estimated_latency() / compiled.estimated_latency(),
            wall
        );
    }
    if let Some(path) = &args.store {
        if compiled.warm_start() {
            eprintln!("warm start: winner replayed from store {path} (0 measurements)");
        } else {
            let (hits, misses) = compiled.store_stats();
            eprintln!("store {path}: {hits} hits, {misses} misses; inspect with `altc store stats {path}`");
        }
    }
    if let Some(path) = &args.trace {
        eprintln!("trace written to {path}; inspect with `altc report {path}`");
    }
    if let Some(path) = &args.journal {
        eprintln!("journal written to {path}; inspect with `altc inspect {path}`");
    }
    // The timing stream has its own sink: wall-clock records never mix
    // into the deterministic trace. Failures here cost the artifact, not
    // the compile (which already finished).
    if let Some(path) = &args.timing {
        match JsonlSink::create(path) {
            Ok(sink) => {
                let t = alt_telemetry::Telemetry::new(std::sync::Arc::new(sink));
                for r in compiled.timing_records() {
                    t.emit(r.clone());
                }
                t.flush();
                eprintln!("timing written to {path}; inspect with `altc report {path}`");
            }
            Err(e) => eprintln!("warning: --timing {path}: {e}; timing not written"),
        }
    }
    if let Some(path) = &args.manifest {
        if let Some(m) = compiled.timing_manifest() {
            let body = serde_json::to_string_pretty(m).unwrap_or_default();
            match std::fs::write(path, format!("{body}\n")) {
                Ok(()) => eprintln!("timing manifest written to {path}"),
                Err(e) => eprintln!("warning: --manifest {path}: {e}; manifest not written"),
            }
        }
    }
}
