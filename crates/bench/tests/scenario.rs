//! The scenario layer under every harness binary: a fleet is built,
//! driven and measured in one place, so that place is tested once.
//! Each point runs at the 0.2 s floor of `LIBSEAL_BENCH_SECS`.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use libseal_bench::*;

/// A [`Point`] holds deltas of process-wide counters, and tests of one
/// binary share a process: scenarios run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn at_the_floor(scenario: Scenario) -> Point {
    let _guard = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    Scenario {
        secs: Duration::from_millis(200),
        ..scenario
    }
    .run()
}

#[test]
fn native_crosses_no_boundary_and_libseal_does() {
    let point =
        |config| at_the_floor(Scenario::paper(App::Static, config, 2).new_connections(1024));
    let (native, libseal) = (point(BenchConfig::Native), point(BenchConfig::Process));
    for p in [&native, &libseal] {
        assert!(p.requests > 0 && p.req_s > 0.0 && p.mean_ms > 0.0, "{p:?}");
        assert_eq!(p.errors, 0, "{p:?}");
    }
    let entries = |p: &Point| p.per_request(p.counts.ecalls + p.counts.async_ecalls);
    assert_eq!(entries(&native), 0.0, "{native:?}");
    assert!(entries(&libseal) > 0.0, "{libseal:?}");
}

/// Every file in the temp directory this process could have put there.
fn own_temp_files() -> BTreeSet<String> {
    let mine = format!("-{}-", std::process::id());
    let names = std::fs::read_dir(std::env::temp_dir()).unwrap().flatten();
    let names = names.map(|e| e.file_name().to_string_lossy().into_owned());
    names.filter(|n| n.contains(&mine)).collect()
}

#[test]
fn audited_git_on_disk_batches_and_leaves_no_journal_behind() {
    // The only disk-backed scenario of this binary, so whatever appears
    // in the temp directory while it runs is its own.
    let before = own_temp_files();
    let p = at_the_floor(Scenario::paper(App::Git, BenchConfig::Disk, 2));
    assert!(p.requests > 0 && p.errors == 0, "{p:?}");
    assert!(p.counts.appends > 0 && p.counts.fsyncs > 0, "{p:?}");
    assert!(
        p.counts.binds > 0 && p.counts.binds <= p.counts.appends,
        "{p:?}"
    );
    assert_eq!(
        own_temp_files(),
        before,
        "a returned scenario left its journal behind"
    );
}

#[test]
fn squid_in_front_of_a_native_origin_serves() {
    for config in [BenchConfig::Native, BenchConfig::Process] {
        let p = at_the_floor(Scenario {
            topology: Topology::Squid,
            ..Scenario::paper(App::Static, config, 2)
        });
        assert!(p.requests > 0 && p.errors == 0, "{config:?}: {p:?}");
    }
}

#[test]
fn repeat_interleaves_flips_and_pairs() {
    // (baseline, variant) throughput per repetition. The host drifts
    // between repetitions, as this one does: the variant is 5 % slower
    // whenever the two run side by side (twice out of three), yet its
    // median is *higher* than the baseline's.
    let table = [[100.0, 95.0], [200.0, 190.0], [150.0, 160.0]];
    let mut order = Vec::new();
    let r = repeat(2, |i| {
        order.push(i);
        Point {
            req_s: table[(order.len() - 1) / 2][i],
            ..Point::default()
        }
    });
    assert_eq!(
        order,
        [0, 1, 1, 0, 0, 1],
        "back to back, order flipped every repetition"
    );
    assert_eq!(r.reps.len(), REPS);

    let spread = |median, min, max| Spread { median, min, max };
    assert_eq!(r.of(0, req_s), spread(150.0, 100.0, 200.0));
    assert_eq!(r.of(1, req_s), spread(160.0, 95.0, 190.0));
    let unpaired = r.of(1, req_s).median / r.of(0, req_s).median - 1.0;
    assert!(
        unpaired > 0.06,
        "the two medians, taken apart, say 'faster'"
    );
    let paired = r.vs(1, 0, req_s);
    assert!((paired.median + 5.0).abs() < 1e-9, "{paired:?}");
    assert!((paired.min + 5.0).abs() < 1e-9 && (paired.max - 100.0 / 15.0).abs() < 1e-9);
    assert_eq!(r.of(0, req_s).cell(0), "150 (100–200)");
    assert_eq!(paired.pct_cell(), "-5.0% (-5.0 to +6.7, sign unresolved)");

    // An even count takes the mean of the middle two.
    let even = Repeated {
        reps: vec![vec![4.0], vec![1.0], vec![3.0], vec![2.0]],
    };
    assert_eq!(even.of(0, |v| *v), spread(2.5, 1.0, 4.0));
}

#[test]
fn every_paper_experiment_is_indexed_and_scripted() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |p: &str| std::fs::read_to_string(root.join(p)).unwrap();
    let (design, script) = (read("DESIGN.md"), read("scripts/experiments.sh"));
    let mut experiments = 0;
    for bin in std::fs::read_dir(root.join("crates/bench/src/bin")).unwrap() {
        let path = bin.unwrap().path();
        // Every gate's module doc opens by saying it is one.
        if std::fs::read_to_string(&path)
            .unwrap()
            .starts_with("//! CI gate")
        {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        assert!(
            design.contains(&format!("--bin {name}`")),
            "{name} is not in DESIGN.md's index"
        );
        let mut words = script.split(|c: char| !c.is_alphanumeric() && c != '_');
        let scripted = words.any(|word| word == name);
        assert!(scripted, "{name} is not run by scripts/experiments.sh");
        experiments += 1;
    }
    assert_eq!(
        experiments, 16,
        "11 tables and figures, §4.2, §6.8, §6.5 and two ablations"
    );
}

#[test]
fn table1_counts_the_declared_interface() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_table1"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = String::from_utf8(out.stdout).unwrap();
    let total = out
        .lines()
        .find(|l| l.starts_with("| Total"))
        .expect("a Total row");
    let cells: Vec<&str> = total.split('|').map(str::trim).collect();
    // `lthread` adds the one entry its workers stay inside through.
    assert_eq!(
        cells[4],
        (libseal::Ecall::ALL.len() + 1).to_string(),
        "{total}"
    );
    assert!(
        out.contains("ocalls observed: bio_handshake, bio_read, bio_write"),
        "{out}"
    );
}
