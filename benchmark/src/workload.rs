//! Turns one workload run into named metrics: the end-to-end ones with
//! tracing off, the per-layer ones with tracing on.

use std::collections::BTreeMap;

use crate::counters::Counters;
use crate::gen::Rng;
use crate::load::Sample;
use crate::readback::{self, Audits};
use crate::serving::{self, Rep, RepOptions, Serving, Sizes, Termination, REPS};
use crate::span::{per_op_ns, to_json, Span, Tracer};
use crate::stages::{self, StageTrace};
use crate::stats::{median_f64, percentile, quantile_f64, tail_level};
use crate::{host, out_dir, RUN_SECONDS};

/// Every workload the binary runs. `BENCHMARK.json` lists the first
/// three; `squid_dropbox_keepalive` and `audit_readback` repeat too
/// poorly on a shared host to be gated (README.md) and are run by
/// hand.
pub const NAMES: [&str; 5] = [
    "apache_newconn_1k",
    "git_keepalive",
    "bulk_updown_256k",
    "squid_dropbox_keepalive",
    readback::NAME,
];

/// Every end-to-end metric, in the order it is printed.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric, in the order it is printed.
pub const PER_LAYER: [(&str, &str); 60] = [
    // (a) stage trace: median microseconds per op.
    ("crypto.x25519_us", "us"),
    ("crypto.ed25519_sign_us", "us"),
    ("crypto.ed25519_verify_us", "us"),
    ("crypto.sha256_16k_us", "us"),
    ("crypto.aead_seal_16k_us", "us"),
    ("crypto.aead_open_16k_us", "us"),
    ("tlsx.handshake_server_us", "us"),
    ("tlsx.handshake_client_us", "us"),
    ("tlsx.handshake_attested_client_us", "us"),
    ("tlsx.record_seal_16k_us", "us"),
    ("tlsx.record_open_16k_us", "us"),
    ("httpx.parse_request_us", "us"),
    ("httpx.parse_request_256k_us", "us"),
    ("httpx.json_parse_us", "us"),
    ("sgxsim.ecall_us", "us"),
    ("lthread.pool_dispatch_us", "us"),
    ("sealdb.insert_us", "us"),
    ("sealdb.point_query_us", "us"),
    ("rote.increment_us", "us"),
    ("core.session_handshake_us", "us"),
    ("core.session_pump_us", "us"),
    ("core.ssm_git_log_pair_us", "us"),
    ("core.ssm_owncloud_log_pair_us", "us"),
    ("core.ssm_dropbox_log_pair_us", "us"),
    ("core.log_append_us", "us"),
    ("core.log_seal_us", "us"),
    ("core.log_flush_us", "us"),
    ("core.check_incremental_us", "us"),
    ("core.check_full_us_per_kpair", "us"),
    ("core.trim_us", "us"),
    ("core.verify_us_per_kentry", "us"),
    ("core.open_recover_us_per_kentry", "us"),
    ("sealdb.journal_bytes_per_op", "bytes"),
    // (b) traced repetition: the program's counters per op.
    ("sgxsim.ecalls_per_op", "count"),
    ("sgxsim.ocalls_per_op", "count"),
    ("sgxsim.cycles_per_op", "count"),
    ("sgxsim.batch_items_per_ecall", "count"),
    ("tlsx.records_sealed_per_op", "count"),
    ("tlsx.records_opened_per_op", "count"),
    ("core.appends_per_op", "count"),
    ("core.head_signs_per_op", "count"),
    ("core.counter_binds_per_op", "count"),
    ("core.appends_per_bind", "count"),
    ("core.commit_wait_us", "us"),
    ("rote.rounds_per_op", "count"),
    ("sealdb.fsyncs_per_op", "count"),
    ("sealdb.statements_per_op", "count"),
    ("lthread.jobs_per_op", "count"),
    ("services.client_connect_us", "us"),
    ("services.client_request_us", "us"),
    ("services.native_ops_per_s", "1/s"),
    ("services.overhead_pct", "%"),
    ("bench.generator_late_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.attributed_share", "share"),
    ("bench.traced_ops_per_s", "1/s"),
    ("bench.traced_cpu_ms_per_op", "ms"),
    ("bench.p99_ms", "ms"),
    ("bench.sys_cpu_share", "share"),
    ("bench.idle_cpu_share", "share"),
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result of one workload run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed verdicts and controls; each is also counted in `failed`.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// What a reader needs next to the numbers: sample counts, the
    /// percentile actually reported, the filesystem, the generator.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Counts `problems` as that many failed checks out of `checks`.
    fn judge(&mut self, checks: u64, problems: Vec<String>) {
        self.attempted += checks;
        self.failed += problems.len() as u64;
        self.problems.extend(problems);
    }

    /// Emits exactly the metrics of `table`, each from `values`.
    fn emit(&mut self, table: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) {
        for &(name, unit) in table {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is {value}");
            self.metrics.push(Metric { name, unit, value });
        }
    }
}

pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut outcome = Outcome::default();
    outcome.notes.push(format!(
        "host: {} core(s); load from this process over loopback, {} generator thread(s), one connection each",
        host::nproc(),
        serving::threads()
    ));
    outcome.notes.push(format!(
        "journals under {} ({})",
        out_dir().display(),
        host::filesystem_of(&out_dir())
    ));
    serving::prime_host(seed);
    match serving::WORKLOADS.iter().find(|w| w.name == name) {
        Some(w) if trace => serving_layers(w, seed, seconds, &mut outcome),
        Some(w) => serving_end_to_end(w, seed, seconds, &mut outcome),
        None if trace => readback_layers(seed, seconds, &mut outcome),
        None => readback_end_to_end(seed, seconds, &mut outcome),
    }
    outcome
}

/// Correct ops per slice of a serving leg: a multiple of every
/// script's period, so each slice holds the same mix of requests. The
/// read-back's slice is one pass over its journals.
///
/// Why slices: neighbours on the reference sandbox's host slow it by a
/// third or more for anything from a fraction of a second to minutes
/// (a throughput-bound arithmetic kernel flips between 1.25 ms and
/// 1.9 ms while the machine is otherwise idle). A leg-long mean mixes
/// quiet and disturbed time in whatever proportion the run got. Slices
/// of a tenth of a second or two are mostly one or the other, and the
/// disturbance only ever slows, so a decile on the quiet side of their
/// distribution is the steadiest estimate of the program's own speed
/// that a 15-second run gives (see README.md for the comparison).
const SERVING_SLICE: usize = 96;

/// Time-ordered samples cut into full slices of `n` (one short slice
/// when there are fewer than `n` samples, as in a smoke run).
fn slices(samples: &[Sample], n: usize) -> Vec<&[Sample]> {
    match samples.len() {
        0 => Vec::new(),
        len if len < n => vec![samples],
        _ => samples.chunks_exact(n).collect(),
    }
}

/// Ops per second of each slice: its size over the time since the
/// previous slice ended.
fn slice_rates(samples: &[Sample], n: usize) -> Vec<f64> {
    let mut from_ns = 0;
    slices(samples, n)
        .into_iter()
        .map(|slice| {
            let to_ns = slice[slice.len() - 1].at_ns;
            let rate = slice.len() as f64 / ((to_ns - from_ns).max(1) as f64 / 1e9);
            from_ns = to_ns;
            rate
        })
        .collect()
}

/// Median latency of each slice, in milliseconds.
fn slice_medians_ms(samples: &[Sample], n: usize) -> Vec<f64> {
    slices(samples, n)
        .into_iter()
        .map(|slice| ms(percentile(&sorted(latencies(slice)), 0.5)))
        .collect()
}

fn latencies(samples: &[Sample]) -> Vec<u64> {
    samples.iter().map(|s| s.lat_ns).collect()
}

/// `ops_per_s`: the ninth decile of the slice rates of `legs`.
fn quiet_ops_per_s<'a>(legs: impl IntoIterator<Item = &'a [Sample]>, n: usize) -> f64 {
    let rates: Vec<f64> = legs.into_iter().flat_map(|l| slice_rates(l, n)).collect();
    quantile_f64(&rates, 0.9)
}

/// `p50_ms`: the first decile of the slice medians of `legs`.
fn quiet_p50_ms<'a>(legs: impl IntoIterator<Item = &'a [Sample]>, n: usize) -> f64 {
    let medians: Vec<f64> = legs
        .into_iter()
        .flat_map(|l| slice_medians_ms(l, n))
        .collect();
    quantile_f64(&medians, 0.1)
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The tail of the pooled latencies of `legs` in milliseconds, with
/// the level it was taken at: p99 when ten samples lie beyond it, the
/// next lower supported level otherwise.
fn tail_ms<'a>(legs: impl IntoIterator<Item = &'a [Sample]>) -> (u32, usize, f64) {
    let pooled = sorted(legs.into_iter().flat_map(latencies).collect());
    let pct = tail_level(pooled.len()).unwrap_or(50);
    let value = ms(percentile(&pooled, f64::from(pct) / 100.0));
    (pct, pooled.len(), value)
}

/// Adds a repetition's ops and verdicts to the outcome.
fn count_rep(rep: &Rep, outcome: &mut Outcome) {
    outcome.attempted += rep.warmup_attempted + rep.sat.attempted + rep.paced.attempted;
    outcome.failed += rep.warmup_failed + rep.sat.failed + rep.paced.failed;
    outcome
        .notes
        .extend(rep.op_failures.iter().map(|f| format!("failed {f}")));
    outcome.judge(4, rep.verdict_failures.clone());
}

fn serving_end_to_end(w: &Serving, seed: u64, seconds: f64, outcome: &mut Outcome) {
    let sizes = Sizes::for_seconds(w, seconds);
    let options = RepOptions {
        termination: Termination::Audited,
        traced: false,
        paced_leg: true,
    };
    let reps: Vec<Rep> = (0..REPS)
        .map(|rep| serving::run_rep(w, seed, rep, sizes, &options))
        .collect();
    reps.iter().for_each(|rep| count_rep(rep, outcome));
    let sat = || reps.iter().map(|r| r.sat.samples.as_slice());
    let paced = || reps.iter().map(|r| r.paced.samples.as_slice());
    outcome.notes.push(format!(
        "{REPS} repetitions of {} warm-up + {} saturated + {} paced ops at {}/s, cut into slices of {SERVING_SLICE} ops",
        sizes.warmup, sizes.sat, sizes.paced, w.paced_rate
    ));
    outcome.notes.push(format!(
        "saturated legs: {:.3} ms of CPU per op, generator included (median of the repetitions, not gated)",
        median_f64(&reps.iter().map(sat_cpu_ms_per_op).collect::<Vec<_>>())
    ));
    let late = sorted(reps.iter().flat_map(|r| r.paced.late_ns.clone()).collect());
    let (pct, samples, tail) = tail_ms(paced());
    outcome.notes.push(format!(
        "paced legs: p{pct} {tail:.3} ms over {samples} pooled samples (not gated), generator lateness p50 {:.1} us, p99 {:.1} us",
        percentile(&late, 0.5) as f64 / 1e3,
        percentile(&late, 0.99) as f64 / 1e3
    ));
    let values = BTreeMap::from([
        (
            "setup_s",
            median_f64(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ),
        ("ops_per_s", quiet_ops_per_s(sat(), SERVING_SLICE)),
        ("p50_ms", quiet_p50_ms(paced(), SERVING_SLICE)),
        ("peak_rss_mib", host::peak_rss_mib()),
    ]);
    outcome.emit(&END_TO_END, &values);
}

/// CPU milliseconds per correct op of a repetition's saturation leg.
fn sat_cpu_ms_per_op(rep: &Rep) -> f64 {
    rep.sat.cpu_s * 1e3 / rep.sat.correct().max(1) as f64
}

/// Writes the spans of a traced run next to the journals.
fn write_trace(name: &str, seed: u64, threads: &[(String, &[Span])], outcome: &mut Outcome) {
    let path = out_dir().join(format!("trace-{name}-{seed}.json"));
    std::fs::write(&path, to_json(threads)).expect("trace file");
    outcome
        .notes
        .push(format!("spans written to {}", path.display()));
}

fn median_span_us(spans: &[Vec<Span>], name: &str) -> f64 {
    let all = sorted(spans.iter().flat_map(|s| per_op_ns(s, name)).collect());
    match all.is_empty() {
        true => 0.0,
        false => percentile(&all, 0.5) as f64 / 1e3,
    }
}

fn stage_values(stage: &StageTrace) -> BTreeMap<&'static str, f64> {
    let mut values: BTreeMap<&'static str, f64> = stage.cost_us.clone();
    values.insert("sealdb.journal_bytes_per_op", stage.journal_bytes_per_op);
    values
}

/// The per-op counts a traced repetition of `ops` ops moved.
fn counter_values(m: &Counters, ops: f64) -> [(&'static str, f64); 15] {
    let per_op = |name: &str| m.count(name) as f64 / ops;
    [
        ("sgxsim.ecalls_per_op", per_op("sgxsim_ecalls_total")),
        ("sgxsim.ocalls_per_op", per_op("sgxsim_ocalls_total")),
        (
            "sgxsim.cycles_per_op",
            per_op("sgxsim_cycles_charged_total"),
        ),
        (
            "sgxsim.batch_items_per_ecall",
            m.ratio("sgxsim_batch_items_total", "sgxsim_batch_ecalls_total"),
        ),
        (
            "tlsx.records_sealed_per_op",
            per_op("tlsx_records_sealed_total"),
        ),
        (
            "tlsx.records_opened_per_op",
            per_op("tlsx_records_opened_total"),
        ),
        ("core.appends_per_op", per_op("core_appends_total")),
        ("core.head_signs_per_op", per_op("core_head_signs_total")),
        (
            "core.counter_binds_per_op",
            per_op("core_counter_binds_total"),
        ),
        (
            "core.appends_per_bind",
            m.ratio("core_appends_total", "core_counter_binds_total"),
        ),
        ("core.commit_wait_us", m.mean_us("core_commit_wait_ns")),
        ("rote.rounds_per_op", per_op("rote_round_ns")),
        (
            "sealdb.fsyncs_per_op",
            per_op("sealdb_journal_fsyncs_total"),
        ),
        (
            "sealdb.statements_per_op",
            per_op("sealdb_statements_total"),
        ),
        ("lthread.jobs_per_op", per_op("lthread_pool_jobs_total")),
    ]
}

fn sat_rate(rep: &Rep) -> f64 {
    quiet_ops_per_s([rep.sat.samples.as_slice()], SERVING_SLICE)
}

fn serving_layers(w: &Serving, seed: u64, seconds: f64, outcome: &mut Outcome) {
    let mut script = w.script(Rng::stream(seed, w.name, 0, 0));
    let stage = stages::run(seed, script.as_mut());
    let mut values = stage_values(&stage);

    let sizes = Sizes::for_seconds(w, seconds);
    let rep = |termination, traced, paced_leg, rep| {
        let options = RepOptions {
            termination,
            traced,
            paced_leg,
        };
        serving::run_rep(w, seed, rep, sizes, &options)
    };
    let plain = rep(Termination::Audited, false, true, 0);
    let traced = rep(Termination::Audited, true, true, 1);
    let native = rep(Termination::Native, false, false, 2);
    [&plain, &traced, &native]
        .into_iter()
        .for_each(|r| count_rep(r, outcome));
    let unmoved = traced.moved.unmoved(w.must_move);
    outcome.judge(
        w.must_move.len() as u64,
        unmoved
            .iter()
            .map(|n| format!("telemetry {n} did not move during the traced legs"))
            .collect(),
    );

    values.extend(counter_values(&traced.moved, traced.timed_ops as f64));
    let late = sorted(traced.paced.late_ns.clone());
    let cpu_us_per_op = sat_cpu_ms_per_op(&traced) * 1e3;
    let (pct, samples, tail) = tail_ms([&plain, &traced].map(|r| r.paced.samples.as_slice()));
    outcome.notes.push(format!(
        "bench.p99_ms is the p{pct} of the {samples} paced samples of the untraced and the traced repetition"
    ));
    let connects_per_op = traced
        .client_spans
        .iter()
        .map(|s| per_op_ns(s, "services.client_connect").len())
        .sum::<usize>() as f64
        / traced.timed_ops as f64;
    values.extend([
        (
            "services.client_connect_us",
            median_span_us(&traced.client_spans, "services.client_connect"),
        ),
        (
            "services.client_request_us",
            median_span_us(&traced.client_spans, "services.client_request"),
        ),
        ("services.native_ops_per_s", sat_rate(&native)),
        (
            "services.overhead_pct",
            (1.0 - sat_rate(&plain) / sat_rate(&native)) * 100.0,
        ),
        (
            "bench.generator_late_p99_us",
            percentile(&late, 0.99) as f64 / 1e3,
        ),
        (
            "bench.trace_overhead_pct",
            (1.0 - sat_rate(&traced) / sat_rate(&plain)) * 100.0,
        ),
        ("bench.traced_ops_per_s", sat_rate(&traced)),
        ("bench.traced_cpu_ms_per_op", cpu_us_per_op / 1e3),
        ("bench.p99_ms", tail),
        ("bench.sys_cpu_share", traced.sat.sys_s / traced.sat.cpu_s),
        ("bench.idle_cpu_share", traced.idle_cpu_share),
    ]);
    let attributed_us = attribute_serving(w, &values, connects_per_op);
    values.insert("bench.attributed_share", attributed_us / cpu_us_per_op);
    outcome.notes.push(format!(
        "traced repetition: {} timed ops, {:.3} client connects per op; stage costs explain {:.0} of {:.0} us CPU per op",
        traced.timed_ops, connects_per_op, attributed_us, cpu_us_per_op
    ));

    let mut threads = vec![("stages".to_string(), stage.spans.as_slice())];
    for (i, spans) in traced.client_spans.iter().enumerate() {
        threads.push((format!("client-{i}"), spans.as_slice()));
    }
    write_trace(w.name, seed, &threads, outcome);
    outcome.emit(&PER_LAYER, &values);
}

/// The waterfall: counts per op from the traced repetition times the
/// stage trace's cost per call, in microseconds of CPU per op. Waiting
/// (fsync, commit wait, pool dispatch) is left out: it is not CPU.
/// Neither is the kernel's share (sockets, epoll, wake-ups), which a
/// trace without sockets cannot price; `bench.sys_cpu_share` says how
/// large it is.
fn attribute_serving(w: &Serving, v: &BTreeMap<&'static str, f64>, connects_per_op: f64) -> f64 {
    let transitions =
        (v["sgxsim.ecalls_per_op"] + v["sgxsim.ocalls_per_op"]) * v["sgxsim.ecall_us"];
    let handshakes =
        connects_per_op * (v["tlsx.handshake_client_us"] + v["tlsx.handshake_server_us"]);
    // Every payload byte is sealed once and opened once (both ends of
    // each connection are in this process); records are priced by the
    // byte at the full-record rate.
    let records = w.record_bytes_per_op() / (16.0 * 1024.0)
        * (v["tlsx.record_seal_16k_us"] + v["tlsx.record_open_16k_us"]);
    // The server parses each request and the module parses it again.
    let parsing = 2.0 * v["httpx.parse_request_us"];
    let logging = match w.log_pair_stage() {
        Some(stage) => {
            v[stage]
                + v["core.head_signs_per_op"] * v["core.log_seal_us"]
                + (v["core.check_incremental_us"] + v["core.trim_us"]) / 25.0
        }
        None => 0.0,
    };
    transitions + handshakes + records + parsing + logging
}

/// Passes over the journals per repetition: twelve (1 728 audits in
/// all) at the benchmark's run length.
fn readback_passes(seconds: f64) -> u64 {
    ((12.0 * seconds / RUN_SECONDS).round() as u64).max(1)
}

struct ReadbackRep {
    setup_s: f64,
    audits: Audits,
}

fn readback_rep(seed: u64, rep: u64, passes: u64, tracer: &mut Option<Tracer>) -> ReadbackRep {
    let t0 = std::time::Instant::now();
    let journals = readback::build_journals(seed, rep);
    let setup_s = t0.elapsed().as_secs_f64();
    ReadbackRep {
        setup_s,
        audits: readback::run_passes(&journals, passes, tracer),
    }
}

fn count_audits(audits: &Audits, outcome: &mut Outcome) {
    outcome.attempted += audits.attempted;
    outcome.failed += audits.failed;
}

fn readback_end_to_end(seed: u64, seconds: f64, outcome: &mut Outcome) {
    let passes = readback_passes(seconds);
    let reps: Vec<ReadbackRep> = (0..REPS)
        .map(|rep| readback_rep(seed, rep, passes, &mut None))
        .collect();
    reps.iter().for_each(|r| count_audits(&r.audits, outcome));
    outcome.judge(2, readback::negative_controls(seed));
    let audits = || reps.iter().map(|r| r.audits.samples.as_slice());
    outcome.notes.push(format!(
        "{REPS} repetitions of {passes} pass(es) over {} freshly built journals, one audit at a time on one thread, cut into slices of one pass",
        readback::JOURNALS
    ));
    let (pct, samples, tail) = tail_ms(audits());
    outcome.notes.push(format!(
        "audits: p{pct} {tail:.3} ms over {samples} pooled samples, {:.3} ms of CPU per audit (median of the repetitions; neither is gated)",
        median_f64(&reps.iter().map(|r| audit_cpu_ms(&r.audits)).collect::<Vec<_>>())
    ));
    let values = BTreeMap::from([
        (
            "setup_s",
            median_f64(&reps.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ),
        ("ops_per_s", quiet_ops_per_s(audits(), readback::JOURNALS)),
        ("p50_ms", quiet_p50_ms(audits(), readback::JOURNALS)),
        ("peak_rss_mib", host::peak_rss_mib()),
    ]);
    outcome.emit(&END_TO_END, &values);
}

/// CPU milliseconds per audit.
fn audit_cpu_ms(audits: &Audits) -> f64 {
    audits.cpu_s * 1e3 / audits.attempted as f64
}

fn readback_layers(seed: u64, seconds: f64, outcome: &mut Outcome) {
    let mut script = readback::Audited::Git.script(Rng::stream(seed, readback::NAME, 0, 0));
    let stage = stages::run(seed, script.as_mut());
    let mut values = stage_values(&stage);

    let passes = readback_passes(seconds);
    let plain = readback_rep(seed, 0, passes, &mut None);
    let before = Counters::read();
    let mut tracer = Some(Tracer::new(std::time::Instant::now()));
    let traced = readback_rep(seed, 1, passes, &mut tracer);
    let m = Counters::read().since(&before);
    count_audits(&plain.audits, outcome);
    count_audits(&traced.audits, outcome);
    outcome.judge(2, readback::negative_controls(seed));
    let must_move = [
        "sealdb_statements_total",
        "sealdb_journal_fsyncs_total",
        "core_appends_total",
    ];
    outcome.judge(
        must_move.len() as u64,
        m.unmoved(&must_move)
            .iter()
            .map(|n| format!("telemetry {n} did not move during the traced repetition"))
            .collect(),
    );

    // Counters cover the journal build as well as the audits: the
    // read-back has no server whose warm-up could be cut off.
    let audits = traced.audits.attempted as f64;
    values.extend(counter_values(&m, audits));
    let rate = |r: &ReadbackRep| quiet_ops_per_s([r.audits.samples.as_slice()], readback::JOURNALS);
    let cpu_us_per_op = audit_cpu_ms(&traced.audits) * 1e3;
    let (pct, samples, tail) = tail_ms([&plain, &traced].map(|r| r.audits.samples.as_slice()));
    outcome.notes.push(format!(
        "bench.p99_ms is the p{pct} of the {samples} audits of the untraced and the traced repetition"
    ));
    // The full check is quadratic in pairs today, so the per-thousand
    // stage costs do not carry over to 16..128-pair journals. The
    // audits' own spans do: how much of an audit's CPU lies inside the
    // three calls it is made of.
    let tracer = tracer.expect("traced repetition");
    let attributed_us =
        tracer.spans().iter().map(Span::duration_ns).sum::<u64>() as f64 / 1e3 / audits;
    values.extend([
        // No sockets, no generator pacing: the service-side metrics
        // do not apply to the read-back and read zero.
        ("services.client_connect_us", 0.0),
        ("services.client_request_us", 0.0),
        ("services.native_ops_per_s", 0.0),
        ("services.overhead_pct", 0.0),
        ("bench.generator_late_p99_us", 0.0),
        (
            "bench.trace_overhead_pct",
            (1.0 - rate(&traced) / rate(&plain)) * 100.0,
        ),
        ("bench.attributed_share", attributed_us / cpu_us_per_op),
        ("bench.traced_ops_per_s", rate(&traced)),
        ("bench.traced_cpu_ms_per_op", cpu_us_per_op / 1e3),
        ("bench.p99_ms", tail),
        (
            "bench.sys_cpu_share",
            traced.audits.sys_s / traced.audits.cpu_s,
        ),
        // Nothing runs between two audits.
        ("bench.idle_cpu_share", 0.0),
    ]);
    outcome.notes.push(format!(
        "traced repetition: {audits} audits of {:.0} pairs / {:.0} entries on average; open + verify + check spans cover {attributed_us:.0} of {cpu_us_per_op:.0} us CPU per audit",
        traced.audits.pairs as f64 / audits,
        traced.audits.entries as f64 / audits,
    ));
    let threads = [
        ("stages".to_string(), stage.spans.as_slice()),
        ("audits".to_string(), tracer.spans()),
    ];
    write_trace(readback::NAME, seed, &threads, outcome);
    outcome.emit(&PER_LAYER, &values);
}
