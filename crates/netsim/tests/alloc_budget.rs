//! Allocation and live-heap budgets, measured rather than grepped: the
//! `no-per-packet-alloc` lint reads constructors and cannot see churn
//! such as a `mem::take` of a bucket per visited wheel slot, nor the
//! bytes every flow carries.
//!
//! A `harness = false` test: one `main` on one thread, so the counting
//! allocator's process-global live bytes move only with the simulation
//! between two reads, and every byte figure below is exact. `main`
//! prints one libtest-style line per check and reads libtest's filter
//! arguments (see [`selected`]); `--list` lists the checks.
//!
//! * **Steady state.** A run's allocations split into set-up (flows,
//!   series, slabs growing to their high-water mark) and a per-packet
//!   remainder. Differencing a 20 s run against the same run cut at 10 s
//!   cancels the set-up and leaves the remainder, which must stay under
//!   50 allocator calls per 1000 extra delivered packets.
//! * **Exact pins.** At 1 000 and 10 000 staggered CUBIC flows, three
//!   live-heap figures are pinned to the byte, each over the live bytes
//!   before set-up: what set-up leaves live (link, simulation,
//!   controllers and the `add_flow` calls), the high-water mark during
//!   `run`, and what the returned report holds. A pin may only fall;
//!   re-pin it with the figure the failure prints. The two arms give
//!   each figure's per-flow slope and fixed intercept, printed with the
//!   check. The slope is an upper line, not a per-flow size: the
//!   senders' `Vec` doubles, so the 10 000-flow arm carries 6 384 empty
//!   sender slots and the 1 000-flow arm 24.
//! * **100 000 flows.** The same fleet at ten times the larger arm's
//!   size stays under the line through the two pinned arms: nothing per
//!   flow grows faster than linearly.
//!
//! Every run also checks that dropping the report returns the live
//! bytes exactly to where they were before set-up.
//!
//! `finalize` writes each report over the sender it came from, so the
//! high-water pin also catches a report buffer allocated beside the
//! senders (312 B per flow when a `u128` gave the sender 16-byte
//! alignment), and the retained pin a report buffer left at the senders'
//! capacity.

use libra_classic::Cubic;
use libra_netsim::{FlowConfig, LinkConfig, Simulation};
use libra_testalloc::{arm, calls, live, peak, reset_peak};
use libra_types::{Duration, Instant, Rate};
use std::panic;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: libra_testalloc::CountingAlloc = libra_testalloc::CountingAlloc;

/// Live-heap figures of one fleet run, in bytes over the live bytes
/// before its set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bytes {
    /// After set-up: the link, the simulation, the controllers and the
    /// `add_flow` calls (senders, goodput bins, scheduled events).
    setup: u64,
    /// The high-water mark during `run`, the report's construction
    /// included.
    peak: u64,
    /// When `run` has returned: the report.
    retained: u64,
}

/// Exact figures at 1 000 and 10 000 flows. `checked-invariants` adds
/// the timer wheel's shadow heap to set-up and run, not to the report.
/// With the MI tracker, the pending MI and a loss list inline in every
/// sender, a report buffer collected beside the senders' and the goodput
/// bins reserved from time zero, these read setup 1 301 016 /
/// 17 502 304, peak 2 031 576 / 22 995 040 and retained 520 392 /
/// 4 929 168 B (`checked-invariants`: setup 1 366 552 / 18 026 592, peak
/// 2 097 112 / 23 519 328).
#[cfg(not(feature = "checked-invariants"))]
const PINS: [(u64, Bytes); 2] = [
    (1_000, bytes(1_001_604, 1_293_924, 515_892)),
    (10_000, bytes(12_738_712, 14_955_448, 4_884_168)),
];
#[cfg(feature = "checked-invariants")]
const PINS: [(u64, Bytes); 2] = [
    (1_000, bytes(1_067_140, 1_359_460, 515_892)),
    (10_000, bytes(13_263_000, 15_479_736, 4_884_168)),
];

const fn bytes(setup: u64, peak: u64, retained: u64) -> Bytes {
    Bytes {
        setup,
        peak,
        retained,
    }
}

/// Flows of the arm that is bounded by the pinned line.
const LARGE: u64 = 100_000;

/// What one counted fleet run measured.
struct Counted {
    bytes: Bytes,
    /// Allocator calls during `run`.
    allocs: u64,
    /// Packets delivered.
    pkts: u64,
}

/// `flows` CUBIC flows over a 96 Mbps / 40 ms bottleneck, flow `i`
/// starting at `i · stagger`, built for `horizon` and run for `secs`.
fn run_counted(flows: u64, stagger: Duration, horizon: Instant, secs: Instant) -> Counted {
    let empty = live();
    let link = LinkConfig::constant(Rate::from_mbps(96.0), Duration::from_millis(40), 1.0);
    let mut sim = Simulation::new(link, 7);
    for i in 0..flows {
        sim.add_flow(FlowConfig::new(
            Box::new(Cubic::new(1500)),
            Instant::ZERO + stagger * i,
            horizon,
        ));
    }
    let before = calls();
    let started = live();
    reset_peak();
    arm(true);
    let report = sim.run(secs);
    arm(false);
    let (ended, high) = (live(), peak());
    let pkts = report.flows.iter().map(|f| f.acked_packets).sum();
    drop(report);
    assert_eq!(live(), empty, "the dropped report left bytes live");
    Counted {
        bytes: Bytes {
            setup: started - empty,
            peak: high - empty,
            retained: ended - empty,
        },
        allocs: calls() - before,
        pkts,
    }
}

/// A fleet of `flows` whose starts spread evenly over its first second,
/// run for two.
fn fleet(flows: u64) -> Counted {
    let stagger = Duration::from_nanos(1_000_000_000 / flows);
    let two = Instant::from_secs(2);
    run_counted(flows, stagger, two, two)
}

fn steady_state_allocates_under_50_per_1000_packets() -> Result<String, String> {
    let (stagger, horizon) = (Duration::from_millis(50), Instant::from_secs(20));
    let ten = run_counted(64, stagger, horizon, Instant::from_secs(10));
    let twenty = run_counted(64, stagger, horizon, horizon);
    let extra_pkts = twenty.pkts - ten.pkts;
    if extra_pkts <= 50_000 {
        return Err(format!("only {extra_pkts} extra packets"));
    }
    let extra_allocs = twenty.allocs.saturating_sub(ten.allocs);
    if extra_allocs * 1000 > 50 * extra_pkts {
        return Err(format!(
            "{extra_allocs} allocations for {extra_pkts} extra packets \
             ({} in 10 s, {} in 20 s)",
            ten.allocs, twenty.allocs
        ));
    }
    Ok(format!(
        "{:.2} allocations per 1000 extra packets",
        extra_allocs as f64 * 1000.0 / extra_pkts as f64
    ))
}

/// Per-flow slope and fixed intercept of the line through the two
/// pinned arms, for each figure.
fn line(pins: &[(u64, Bytes); 2]) -> [(&'static str, f64, f64); 3] {
    let [(n0, a), (n1, b)] = *pins;
    let fit = |y0: f64, y1: f64| {
        let slope = (y1 - y0) / (n1 - n0) as f64;
        (slope, y0 - slope * n0 as f64)
    };
    let (s, p, r) = (
        fit(a.setup as f64, b.setup as f64),
        fit(a.peak as f64, b.peak as f64),
        fit(a.retained as f64, b.retained as f64),
    );
    [
        ("setup", s.0, s.1),
        ("peak", p.0, p.1),
        ("retained", r.0, r.1),
    ]
}

fn describe(pins: &[(u64, Bytes); 2]) -> String {
    line(pins)
        .iter()
        .map(|(what, slope, intercept)| format!("{what} {slope:.1} B/flow {intercept:+.0} B"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn fleet_bytes_are_pinned_at_1000_and_10000_flows() -> Result<String, String> {
    let measured = PINS.map(|(flows, _)| (flows, fleet(flows).bytes));
    if measured != PINS {
        return Err(format!(
            "live-heap pins moved: measured {measured:?}, pinned {PINS:?} \
             (measured line: {})",
            describe(&measured)
        ));
    }
    Ok(describe(&PINS))
}

fn hundred_thousand_flows_stay_on_the_pinned_line() -> Result<String, String> {
    let bytes = fleet(LARGE).bytes;
    let measured = [bytes.setup, bytes.peak, bytes.retained].map(|b| b as f64);
    let mut out = Vec::new();
    for ((what, slope, intercept), got) in line(&PINS).into_iter().zip(measured) {
        let bound = intercept + slope * LARGE as f64;
        if got > bound {
            return Err(format!(
                "{what}: {got} B at {LARGE} flows, over the pinned line's {bound:.0} B"
            ));
        }
        out.push(format!("{what} {:.1} B/flow", got / LARGE as f64));
    }
    Ok(out.join(", "))
}

type Check = fn() -> Result<String, String>;

const CHECKS: [(&str, Check); 3] = [
    (
        "steady_state_allocates_under_50_per_1000_packets",
        steady_state_allocates_under_50_per_1000_packets,
    ),
    (
        "fleet_bytes_are_pinned_at_1000_and_10000_flows",
        fleet_bytes_are_pinned_at_1000_and_10000_flows,
    ),
    (
        "hundred_thousand_flows_stay_on_the_pinned_line",
        hundred_thousand_flows_stay_on_the_pinned_line,
    ),
];

/// The checks libtest's command line selects: names containing a
/// positional filter (equal to it under `--exact`) and no `--skip`
/// pattern; none under `--ignored`, as no check is ignored. Other
/// options are accepted and ignored, with the value of those that take
/// one.
fn selected(args: &[String]) -> Vec<&'static (&'static str, Check)> {
    let (mut filters, mut skips, mut exact, mut ignored) = (Vec::new(), Vec::new(), false, false);
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--exact" => exact = true,
            "--ignored" => ignored = true,
            "--skip" => skips.extend(it.next()),
            "--test-threads" | "--format" | "--color" | "--logfile" | "--shuffle-seed" | "-Z" => {
                it.next();
            }
            _ if arg.starts_with('-') => {}
            _ => filters.push(arg),
        }
    }
    let hit = |name: &str, pattern: &str| {
        if exact {
            name == pattern
        } else {
            name.contains(pattern)
        }
    };
    CHECKS
        .iter()
        .filter(|(name, _)| {
            !ignored
                && (filters.is_empty() || filters.iter().any(|f| hit(name, f)))
                && !skips.iter().any(|s| hit(name, s))
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let chosen = selected(&args);
    if args.iter().any(|a| a == "--list") {
        for (name, _) in &chosen {
            println!("{name}: test");
        }
        return ExitCode::SUCCESS;
    }
    let plural = if chosen.len() == 1 { "" } else { "s" };
    println!("\nrunning {} test{plural}", chosen.len());
    let mut failed = Vec::new();
    for (name, check) in &chosen {
        // A check returns its failure; a panic (an overflow, say) still
        // fails only its own check.
        match panic::catch_unwind(check) {
            Ok(Ok(note)) => {
                println!("{name}: {note}");
                println!("test {name} ... ok");
            }
            Ok(Err(why)) => {
                println!("test {name} ... FAILED");
                eprintln!("{name}: {why}");
                failed.push(name);
            }
            Err(_) => {
                println!("test {name} ... FAILED");
                failed.push(name);
            }
        }
    }
    let status = if failed.is_empty() { "ok" } else { "FAILED" };
    println!(
        "\ntest result: {status}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out\n",
        chosen.len() - failed.len(),
        failed.len(),
        CHECKS.len() - chosen.len()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
