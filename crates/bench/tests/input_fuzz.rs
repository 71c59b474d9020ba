//! Seeded input fuzzing of every parser a user's flags or files reach:
//! `run_all`'s argument parser, the JSON reader behind results,
//! snapshots, timing records and plans, fault-plan and fleet-fault-plan
//! decoding, and the wall-time budget parser.
//!
//! Driven by the vendored deterministic RNG with fixed seeds, so a
//! failure replays by re-running the test. Every call must return `Ok`
//! or its typed error; a panic, or a stack overflow on deep nesting,
//! fails the test.

use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use pageforge_bench::args::{ArgsError, BenchArgs};
use pageforge_bench::timing_gate::parse_budget;
use pageforge_faults::{FaultPlan, FleetFaultPlan};
use pageforge_types::json::{self, ToJson, Value};

/// Cases per target.
const CASES: usize = 3_000;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read_repo_file(rel: &str) -> String {
    std::fs::read_to_string(repo_root().join(rel)).expect("committed input file")
}

fn pick<'a, T>(rng: &mut SmallRng, xs: &'a [T]) -> &'a T {
    &xs[rng.gen_range(0..xs.len())]
}

/// Runs `f`, failing the test with the target, case and input if it
/// panics.
fn must_not_panic<I: std::fmt::Debug, R>(
    what: &str,
    case: usize,
    input: &I,
    f: impl FnOnce() -> R,
) -> R {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(out) => out,
        Err(_) => panic!("{what}: case {case} panicked on input {input:?}"),
    }
}

#[test]
fn bench_args_never_panic_and_shards_is_unknown() {
    const FLAGS: &[&str] = &[
        "--seed",
        "--quick",
        "--smoke",
        "--jobs",
        "--seeds",
        "--only",
        "--out",
        "--trace",
        "--faults",
        "--fleet-faults",
        "--snapshot",
        "--shards",
    ];
    const JUNK: &[&str] = &[
        "0",
        "1",
        "4",
        "-1",
        "1.5",
        " 2",
        "0x",
        "0x2A",
        "0xZZ",
        "18446744073709551616",
        "abc",
        "",
        ",",
        "fig7,latency",
        "--",
        "-",
        "-j",
        "—jobs",
        "/tmp/x",
    ];
    let mut rng = SmallRng::seed_from_u64(0xA125);
    for case in 0..CASES {
        let len = rng.gen_range(0..8usize);
        let tokens: Vec<String> = (0..len)
            .map(|_| {
                let pool = if rng.gen_bool(0.6) { FLAGS } else { JUNK };
                (*pick(&mut rng, pool)).to_owned()
            })
            .collect();
        let parsed = must_not_panic("BenchArgs::from_args", case, &tokens, || {
            BenchArgs::from_args(tokens.clone())
        });
        match parsed {
            Ok(args) => assert!(args.jobs >= 1 && args.seeds >= 1, "{tokens:?}"),
            Err(e) => assert!(!e.to_string().is_empty()),
        }
        if tokens.first().is_some_and(|t| t == "--shards") {
            assert_eq!(
                BenchArgs::from_args(tokens.clone()),
                Err(ArgsError::Unknown("--shards".into())),
                "{tokens:?}"
            );
        }
    }
}

/// Applies one random byte-level edit, biased towards JSON's structural
/// characters. Inserted bytes are ASCII; an edit that splits a
/// multi-byte character is repaired by the caller's `from_utf8_lossy`.
fn mutate_bytes(text: &mut Vec<u8>, rng: &mut SmallRng) {
    const BYTES: &[u8] = b"[]{}\":,-+.0123456789eEnulltrfas \\/x\n";
    if text.is_empty() {
        text.push(*pick(rng, BYTES));
        return;
    }
    let at = rng.gen_range(0..text.len());
    match rng.gen_range(0..5u32) {
        0 => text[at] = *pick(rng, BYTES),
        1 => text.insert(at, *pick(rng, BYTES)),
        2 => {
            text.remove(at);
        }
        3 => text.truncate(at),
        _ => {
            let end = (at + rng.gen_range(1..16usize)).min(text.len());
            let chunk = text[at..end].to_vec();
            text.splice(at..at, chunk);
        }
    }
}

#[test]
fn json_parse_survives_byte_mutations_of_committed_results() {
    let seeds: Vec<Vec<u8>> = [
        "results/table3_apps.json",
        "results/fleet_chaos.json",
        "results/meta/BENCH_15.json",
        "ci/chaos_plan.json",
    ]
    .iter()
    .map(|rel| read_repo_file(rel).into_bytes())
    .collect();
    let mut rng = SmallRng::seed_from_u64(0x15_0A);
    for case in 0..CASES {
        let mut text = pick(&mut rng, &seeds).clone();
        for _ in 0..rng.gen_range(1..5u32) {
            mutate_bytes(&mut text, &mut rng);
        }
        let text = String::from_utf8_lossy(&text).into_owned();
        let parsed = must_not_panic("json::parse", case, &text, || json::parse(&text));
        if let Ok(value) = parsed {
            // Whatever parses prints, and what prints parses again.
            let again = json::parse(&value.to_string_compact());
            assert!(
                again.is_ok(),
                "case {case}: reprint of {text:?} fails: {again:?}"
            );
        }
    }
}

#[test]
fn json_parse_rejects_deep_nesting_without_overflowing() {
    // Committed JSON nests under ten levels deep; that must keep parsing.
    let shallow = "[".repeat(8) + "{\"a\":1}" + &"]".repeat(8);
    assert!(json::parse(&shallow).is_ok());
    let mut rng = SmallRng::seed_from_u64(0xDEE9);
    for levels in [1_000, 10_000, 100_000] {
        for closed in [false, true] {
            let mut text = String::new();
            let mut closers = Vec::with_capacity(levels);
            for _ in 0..levels {
                if rng.gen_bool(0.5) {
                    text.push('[');
                    closers.push(']');
                } else {
                    text.push_str("{\"k\":");
                    closers.push('}');
                }
            }
            text.push('0');
            if closed {
                text.extend(closers.iter().rev());
            }
            let result = json::parse(&text);
            assert!(result.is_err(), "{levels} levels (closed: {closed}) parsed");
        }
    }
}

/// Values a mutated plan field may take.
fn junk(rng: &mut SmallRng) -> Value {
    const KINDS: &[&str] = &[
        "data", "check", "alias3", "key", "collide", "table", "crash", "gray", "wedge", "migfail",
        "", "bogus",
    ];
    match rng.gen_range(0..7u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool(0.5)),
        2 => Value::Num(*pick(
            rng,
            &[
                0.0,
                1.0,
                2.0,
                7.0,
                255.0,
                256.0,
                -1.0,
                1.5,
                4_294_967_296.0,
                1e30,
            ],
        )),
        3 => Value::Num(rng.gen_range(0..1_000_000u64) as f64),
        4 => Value::Str((*pick(rng, KINDS)).to_owned()),
        5 => Value::Arr(
            (0..rng.gen_range(0..3usize))
                .map(|_| Value::Num(3.0))
                .collect(),
        ),
        _ => Value::Obj(Vec::new()),
    }
}

/// Applies one random field edit somewhere in a plan's JSON tree:
/// remove, retype or rename a member, or add an unknown one.
fn mutate_field(value: &mut Value, rng: &mut SmallRng) {
    const KEYS: &[&str] = &[
        "version",
        "seed",
        "events",
        "stalls",
        "at",
        "kind",
        "host",
        "down_ticks",
        "for_ticks",
        "factor",
        "word",
        "bits",
        "xor",
        "entry",
        "ppn_xor",
        "less_xor",
        "more_xor",
        "from",
        "until",
        "bogus",
    ];
    match value {
        Value::Obj(members) if !members.is_empty() => {
            let i = rng.gen_range(0..members.len());
            if rng.gen_bool(0.5) {
                return mutate_field(&mut members[i].1, rng);
            }
            match rng.gen_range(0..4u32) {
                0 => {
                    members.remove(i);
                }
                1 => members[i].1 = junk(rng),
                2 => members[i].0 = (*pick(rng, KEYS)).to_owned(),
                _ => members.push(((*pick(rng, KEYS)).to_owned(), junk(rng))),
            }
        }
        Value::Arr(items) if !items.is_empty() => {
            let i = rng.gen_range(0..items.len());
            if rng.gen_bool(0.7) {
                mutate_field(&mut items[i], rng);
            } else {
                items[i] = junk(rng);
            }
        }
        other => *other = junk(rng),
    }
}

#[test]
fn fault_plan_decoding_survives_field_mutations() {
    let dir = std::env::temp_dir().join("pageforge-input-fuzz-plans");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("plan.json");
    let fleet_seed = json::parse(&read_repo_file("ci/chaos_plan.json")).expect("committed plan");
    let engine_seed = FaultPlan::generate(7, 5_000_000, 24, 2, 10_000).to_json();
    let mut rng = SmallRng::seed_from_u64(0xFA_17);
    for case in 0..CASES {
        let fleet = rng.gen_bool(0.5);
        let mut value = if fleet {
            fleet_seed.clone()
        } else {
            engine_seed.clone()
        };
        for _ in 0..rng.gen_range(1..4u32) {
            mutate_field(&mut value, &mut rng);
        }
        let text = value.to_string_compact();
        std::fs::write(&path, &text).expect("write plan");
        if fleet {
            let plan = must_not_panic("FleetFaultPlan::read_file", case, &text, || {
                FleetFaultPlan::read_file(&path)
            });
            if let Err(e) = plan {
                assert!(e.starts_with(&path.display().to_string()), "{e}");
            }
        } else {
            let plan = must_not_panic("FaultPlan::read_file", case, &text, || {
                FaultPlan::read_file(&path)
            });
            if let Err(e) = plan {
                assert!(e.starts_with(&path.display().to_string()), "{e}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budget_parsing_survives_line_mutations() {
    const JUNK: &[&str] = &[
        "[total]",
        "[experiments]",
        "[nope]",
        "[total",
        "total]",
        "[]",
        "x = 1",
        "wall_secs = fast",
        "slack_frac = NaN",
        "latency = -1",
        "latency = 1e400",
        "a = b = c",
        "=",
        "= 3",
        "# a comment",
        "   ",
        "latency",
        "é = 1",
    ];
    let budget = read_repo_file("perf_budget.toml");
    let lines: Vec<&str> = budget.lines().collect();
    let mut rng = SmallRng::seed_from_u64(0xB0D6);
    for case in 0..CASES {
        let mut edited: Vec<String> = lines.iter().map(|l| (*l).to_owned()).collect();
        for _ in 0..rng.gen_range(1..4u32) {
            let at = rng.gen_range(0..edited.len() + 1);
            match rng.gen_range(0..5u32) {
                0 if at < edited.len() => {
                    edited.remove(at);
                }
                1 if at < edited.len() => {
                    let line = edited[at].clone();
                    edited.insert(at, line);
                }
                2 if at < edited.len() => edited[at] = (*pick(&mut rng, JUNK)).to_owned(),
                3 if at < edited.len() => {
                    let cut = rng.gen_range(0..edited[at].len() + 1);
                    if edited[at].is_char_boundary(cut) {
                        edited[at].truncate(cut);
                    }
                }
                _ => edited.insert(at, (*pick(&mut rng, JUNK)).to_owned()),
            }
        }
        let text = edited.join("\n");
        let parsed = must_not_panic("parse_budget", case, &text, || {
            parse_budget("perf_budget.toml", &text)
        });
        if let Err(e) = parsed {
            assert!(e.starts_with("perf_budget.toml"), "{e}");
        }
    }
}
