//! The repo's benchmark (see README.md beside this package).
//!
//! `libra-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in one process and prints every metric by name,
//! then — as the last line of standard output — the result object
//! `BENCHMARK.json`'s contract asks for. With `--trace 0` the metrics are
//! the end-to-end ones, measured with nothing attached; with `--trace 1`
//! the per-layer ones, from decorated runs and the layer drivers.

mod alloc;
mod drivers;
mod estimate;
mod metrics;
mod timed;
mod trace;
mod workloads;

use estimate::{settled, summarize};
use metrics::{result_line, Board, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant as Wall;
use workloads::{Kind, Tally, Workload};

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run; the median is reported.
const SETUPS: usize = 21;
/// Timed iterations per run, at least.
const MIN_ITERATIONS: usize = 3;
/// An unsettled run may measure this much longer than `--seconds`.
const MAX_EXTENSION: f64 = 1.25;
/// Share of a traced run's time the layer drivers get.
const DRIVER_SHARE: f64 = 0.4;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Where scratch files go: beside the executable, which cargo put in the
/// target directory — inside the checkout and ignored by git.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    exe.parent()
        .expect("executable has a directory")
        .to_path_buf()
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Build the workload [`SETUPS`] times; return the last instance and
/// the median set-up time.
fn timed_setup(args: &Args) -> (Workload, f64) {
    let scratch = scratch_dir();
    let mut times = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        let t0 = Wall::now();
        let built = Workload::setup(args.kind, args.seed, &scratch);
        times.push(t0.elapsed().as_secs_f64());
        workload = Some(built);
    }
    (workload.expect("SETUPS > 0"), summarize(&times).median)
}

/// `--trace 0`: the end-to-end metrics, nothing attached.
fn run_untraced(args: &Args, tally: &mut Tally) -> Board {
    let (workload, setup_s) = timed_setup(args);
    let ops = workload.ops();
    let sim_s = workload.sim_seconds();

    // One untimed warm-up; its digests are the reference every later
    // iteration must reproduce.
    let reference = workload.iterate();
    tally.note(&reference, ops);

    let mut walls = Vec::new();
    let t0 = Wall::now();
    loop {
        let mut it = workload.iterate();
        it.check_against(&reference.digests);
        tally.note(&it, ops);
        walls.push(it.wall_s);
        let elapsed = t0.elapsed().as_secs_f64();
        let done = elapsed >= args.seconds && settled(&walls);
        if walls.len() >= MIN_ITERATIONS && (done || elapsed >= args.seconds * MAX_EXTENSION) {
            break;
        }
    }
    let wall = summarize(&walls);
    if !wall.settled {
        eprintln!("NOTE unsettled: the three fastest iterations are more than 3 % apart");
    }
    eprintln!("samples {walls:?}");

    let acked = reference.acked as f64;
    let mut board = Board::new(END_TO_END);
    board.set_timed("sim_s_per_s", &wall, |w| sim_s / w);
    board.set_timed("ns_per_pkt", &wall, |w| w * 1e9 / acked);
    board.set("peak_rss_mib", peak_rss_mib());
    board.set("setup_s", setup_s);
    board
}

/// `--trace 1`: the per-layer metrics.
fn run_traced(args: &Args, tally: &mut Tally) -> Board {
    let scratch = scratch_dir();
    let mut board = Board::new(PER_LAYER);
    let workload = Workload::setup(args.kind, args.seed, &scratch);
    let pass_s = args.seconds * (1.0 - DRIVER_SHARE);
    match &workload {
        Workload::Fleet(fleet) => trace::trace_fleet(fleet, pass_s, &mut board, tally),
        Workload::Sweep(sweep) => trace::trace_sweep(sweep, pass_s, &mut board, tally),
    }
    drivers::run_all(args.seconds * DRIVER_SHARE, &scratch, &mut board);
    trace::reconcile(args.kind, &mut board);
    board
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("libra-benchmark: {why}");
            eprintln!(
                "usage: libra-benchmark --workload <{}> --seed <n> --seconds <1..60> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut tally = Tally::default();
    let board = if args.trace {
        run_traced(&args, &mut tally)
    } else {
        run_untraced(&args, &mut tally)
    };
    print!("{}", board.table());
    println!(
        "{}",
        result_line(tally.correct(), tally.attempted, tally.failed, &board)
    );
    if tally.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
