//! The work under the audit lock is held without a clock: a counting
//! allocator measures the heap allocations of the two Git invariants,
//! of one trim and its commit, and of one staged append and its seal
//! on a fixed log shaped like a `git_keepalive` run between two trims
//! (2 repos × 4 branches, 25 updates, 32 advertisements). The counts are
//! deterministic, so an executor that goes back to cloning rows or
//! formatting a key per value, or a log that parses its statements per
//! call again, fails here rather than somewhere in a benchmark's noise.
//!
//! Alone in its binary: it counts the allocations of the test thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use libseal::log::{AuditLog, LogBacking, NoGuard};
use libseal::ssm::git::{GIT_COMPLETENESS, GIT_SOUNDNESS};
use libseal::{GitModule, ServiceModule};
use libseal_crypto::ed25519::SigningKey;
use libseal_sealdb::Value;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn note() {
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// counting touches only a const-initialised thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations this thread makes while `f` runs.
fn allocations_of<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

const REPOS: [&str; 2] = ["alpha", "beta"];
const BRANCHES: [&str; 4] = ["main", "dev", "fix", "rel"];

/// A Git log of the `git_keepalive` shape: every branch pushed once,
/// then 17 more pushes and 8 fetches (each advertising the 4 branches
/// of one repo) interleaved, all honest.
fn keepalive_log() -> AuditLog {
    let ssm = GitModule;
    let mut log = AuditLog::open(
        LogBacking::Memory,
        [7u8; 32],
        SigningKey::from_seed(&[1u8; 32]),
        Box::new(NoGuard),
        ssm.schema_sql(),
        ssm.tables(),
    )
    .unwrap();
    // tips[repo][branch]: the push number of the branch's latest cid.
    let mut tips = [[0u64; 4]; 2];
    let mut pushes = 0u64;
    let mut push = |log: &mut AuditLog, tips: &mut [[u64; 4]; 2], r: usize, b: usize| {
        pushes += 1;
        tips[r][b] = pushes;
        let time = log.next_time() as i64;
        log.append(
            "updates",
            &[
                Value::Integer(time),
                Value::Text(REPOS[r].into()),
                Value::Text(BRANCHES[b].into()),
                Value::Text(format!("{pushes:040x}")),
                Value::Text("update".into()),
            ],
        )
        .unwrap();
    };
    for r in 0..2 {
        for b in 0..4 {
            push(&mut log, &mut tips, r, b);
        }
    }
    let (mut updates, mut fetches) = (8, 0);
    while updates < 25 || fetches < 8 {
        if updates < 25 {
            push(&mut log, &mut tips, updates % 2, (updates / 2) % 4);
            updates += 1;
        }
        if fetches < 8 && (updates >= 25 || updates % 2 == 0) {
            let r = fetches % 2;
            let time = log.next_time() as i64;
            for (b, branch) in BRANCHES.iter().enumerate() {
                log.append(
                    "advertisements",
                    &[
                        Value::Integer(time),
                        Value::Text(REPOS[r].into()),
                        Value::Text((*branch).into()),
                        Value::Text(format!("{:040x}", tips[r][b])),
                    ],
                )
                .unwrap();
            }
            fetches += 1;
        }
    }
    log.commit().unwrap();
    log
}

#[test]
fn git_invariants_and_trim_stay_under_their_allocation_ceilings() {
    let mut log = keepalive_log();
    let count = |sql| {
        log.query(&format!("SELECT COUNT(*) FROM {sql}"), &[])
            .unwrap()
    };
    assert_eq!(count("updates").scalar(), Some(&Value::Integer(25)));
    assert_eq!(count("advertisements").scalar(), Some(&Value::Integer(32)));
    assert_eq!(log.entries(), 57);

    // Warm-up: the metric handles and lazily built statics allocate once.
    log.query(GIT_SOUNDNESS, &[]).unwrap();
    log.verify().unwrap();

    let (completeness, completeness_allocs) =
        allocations_of(|| log.query(GIT_COMPLETENESS, &[]).unwrap());
    let (soundness, soundness_allocs) = allocations_of(|| log.query(GIT_SOUNDNESS, &[]).unwrap());
    let (verified, verify_allocs) = allocations_of(|| log.verify());
    let (trimmed, trim_allocs) = allocations_of(|| {
        log.trim(GitModule.trim_queries())?;
        log.commit()
    });
    eprintln!(
        "allocations: completeness {completeness_allocs}, soundness {soundness_allocs}, \
         verify {verify_allocs}, trim {trim_allocs}"
    );
    assert!(completeness.is_empty(), "honest log: {completeness:?}");
    assert!(soundness.is_empty(), "honest log: {soundness:?}");
    verified.unwrap();
    trimmed.unwrap();
    assert_eq!(log.entries(), 8, "one surviving update per branch");
    log.verify().unwrap();

    // One staged append and the seal that covers it, as the serving
    // path runs them; the second of each is counted.
    let row = |n: u64| {
        let time = Value::Integer(1_000 + n as i64);
        let text = |s: String| Value::Text(s);
        let cid = text(format!("{n:040x}"));
        [
            time,
            text("alpha".into()),
            text("main".into()),
            cid,
            text("update".into()),
        ]
    };
    let (first, second) = (row(1), row(2));
    log.append("updates", &first).unwrap();
    log.seal().unwrap();
    let (appended, append_allocs) = allocations_of(|| log.append("updates", &second));
    let (sealed, seal_allocs) = allocations_of(|| log.seal());
    eprintln!("allocations: append {append_allocs}, seal {seal_allocs}");
    appended.unwrap();
    sealed.unwrap();

    // Ceilings: the counts once the executor stopped allocating per row
    // and the chain check per entry (678, 702, 69 and 585; before, 11,173,
    // 3,195, 7,129 and 5,958), plus a margin for an unrelated change to
    // the parser or the seal. A trim with the commit that lands it (418:
    // 206 to stage, 212 to commit) is under its old ceiling. An append
    // and a seal run their statements from the form parsed at open (24
    // and 22; parsed per call and with a formatted hex byte per
    // `format!`, 57 and 172): one statement parsed per call again costs
    // more than the margin.
    let ceilings = [
        ("GIT_COMPLETENESS", completeness_allocs, 800),
        ("GIT_SOUNDNESS", soundness_allocs, 800),
        ("verify", verify_allocs, 100),
        ("trim", trim_allocs, 700),
        ("append", append_allocs, 32),
        ("seal", seal_allocs, 30),
    ];
    for (what, count, ceiling) in ceilings {
        assert!(
            count <= ceiling,
            "{what}: {count} allocations, ceiling {ceiling}"
        );
    }
}
