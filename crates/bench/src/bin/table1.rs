//! Tab. 1: lines of code and enclave-interface size per module.
//!
//! The paper reports 344,900 LOC total (78.1% LibreSSL) with 209
//! ecalls and 55 ocalls, because every line inside the enclave and
//! every way across its boundary is attack surface. This binary counts
//! the same inventory for the reproduction, and nothing in it is a
//! literal: lines are counted from the sources by the rule
//! `scripts/loc_budget.sh` enforces (non-blank, not a `//` comment;
//! the script reads its numbers from this output, so there is one
//! counter), ecalls are [`Ecall::ALL`], ocalls are the names the
//! transition accounting recorded during an audited Git session on
//! each call path, and `unsafe` and `unwrap`/`expect` sites are counted
//! per crate as budgets that may only shrink.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin table1
//! ```

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use libseal::{Ecall, GitModule, LibSeal};
use libseal_bench::*;

/// What runs inside the enclave, one `path: why` per line (DESIGN.md,
/// "what runs where"). `sgxsim` is not listed: it stands in for the CPU
/// and the SDK runtime, which the paper's table does not count either.
/// Nor is `crates/tlsx/src/stream.rs`: `SslStream` and `WireBuf` are the
/// host's socket driver (the reactor and the clients); the enclave runs
/// `Ssl::pump` on bytes handed to it.
const IN_ENCLAVE: &str = "\
crates/crypto/src: every primitive TLS, the log signature and the sealing codec call
crates/tlsx/src/lib.rs: STLS's error and handshake-failure types
crates/tlsx/src/ssl.rs: STLS terminates inside (Ssl::pump), keys and plaintext never leave
crates/tlsx/src/record.rs: the record layer seals and opens inside
crates/tlsx/src/cert.rs: the enclave's certificate and the client certificates it verifies
crates/tlsx/src/attest.rs: the quote extension the enclave's certificate carries
crates/httpx/src: the service modules parse requests and responses inside
crates/sealdb/src: the audit log is an in-enclave relational database
crates/core/src/enclave.rs: the trusted state, every entry point's body, the Ecall table
crates/core/src/log.rs: hash chain, head signature, sealing, trimming
crates/core/src/check.rs: the invariant checker
crates/core/src/queue.rs: the ticket queue the sealer and verifier threads drain
crates/core/src/ssm: the service-specific modules
crates/lthread/src/context.rs: the lthread context switch
crates/lthread/src/coro.rs: lthread tasks run on the enclave's threads
crates/lthread/src/runtime.rs: the in-enclave scheduler of the asynchronous calls
crates/lthread/src/slots.rs: the call slots both sides of the boundary poll
crates/rote/src: the counter client a seal calls (its simulated remote nodes answer inline from the same file)
crates/plat/src/sync.rs: the locks in-enclave code takes
crates/plat/src/entropy.rs: seeds the in-enclave random number generator
crates/plat/src/failpoint.rs: fault-injection sites compiled into the write path
crates/telemetry/src: counters and histograms recorded from inside";

/// The paper's Tab. 1 rows, one `module: the crates it covers here` per
/// line.
const MODULES: &str = "\
TLS library (LibreSSL ~ tlsx+crypto): tlsx crypto
Enclave shim layer (core + sgxsim): core sgxsim
Async transitions (lthread): lthread
SQLite (sealdb): sealdb
Audit logging + SSMs + services: httpx rote services
Runtime shims and probes (libc, SDK): plat telemetry";

/// Code lines, `unsafe` sites and `unwrap`/`expect` sites.
type Tally = [u64; 3];

/// Places in `line` where `word` is followed by one of `next`. Written
/// so that this file's own literals are not sites.
fn sites(line: &str, word: &str, next: &[&str]) -> u64 {
    let after = |(at, _): (usize, &str)| &line[at + word.len()..];
    let follows = |rest: &&str| next.iter().any(|n| rest.starts_with(n));
    line.match_indices(word).map(after).filter(follows).count() as u64
}

/// Tallies the `.rs` files under `path` (a file or a directory).
fn tally(path: &Path) -> Tally {
    let Ok(entries) = std::fs::read_dir(path) else {
        let text = std::fs::read_to_string(path).unwrap_or_default();
        let code = text.lines().map(str::trim);
        let code = code.filter(|l| !l.is_empty() && !l.starts_with("//"));
        return code.fold([0; 3], |[lines, unsafes, panics], l| {
            let unsafes = unsafes + sites(l, "unsafe", &[" {", " fn", " impl", " extern"]);
            let panics = panics + sites(l, ".unwrap", &["()"]) + sites(l, ".expect", &["("]);
            [lines + 1, unsafes, panics]
        });
    };
    let files = entries.flatten().map(|e| e.path());
    let files = files.filter(|p| p.is_dir() || p.extension().is_some_and(|e| e == "rs"));
    files
        .map(|p| tally(&p))
        .fold([0; 3], |a, b| [a[0] + b[0], a[1] + b[1], a[2] + b[2]])
}

/// The ocall names one audited Git session uses on each call path:
/// whatever the transition accounting saw that is not an ecall.
fn observed_ocalls() -> BTreeSet<&'static str> {
    let id = BenchIdentity::new();
    let mut names = BTreeSet::new();
    // Synchronous calls under both drivers (the reactor pumps sessions
    // in batches, the thread-per-connection one call by call), then the
    // asynchronous runtime under the driver the paper ran it with.
    let paths = [(None, true), (None, false), (Some(paper_runtime(4)), false)];
    for (runtime, event_loop) in paths {
        let config = id.unpriced().ssm(Arc::new(GitModule)).build();
        let ls = match runtime {
            None => LibSeal::new(config),
            Some(rt) => LibSeal::with_async(config, rt),
        }
        .expect("libseal");
        ls.set_info_callback(0, Arc::new(|_, _| ()))
            .expect("info callback");
        Scenario {
            event_loop,
            secs: Duration::from_millis(200),
            ..Scenario::new(App::Git, TlsSide::Audited(ls.clone(), None))
        }
        .run();
        names.extend(ls.stats().by_name.into_keys());
    }
    let ecalls: BTreeSet<&str> = Ecall::ALL.iter().map(|e| e.name()).collect();
    names.retain(|n| !ecalls.contains(n));
    names
}

fn main() {
    // crates/bench -> workspace root.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    let tallies: Vec<Tally> = (crates.iter())
        .map(|name| tally(&root.join("crates").join(name).join("src")))
        .collect();
    let src = |name: &str| tallies[crates.iter().position(|c| c == name).expect("a crate")];
    let in_enclave = || IN_ENCLAVE.lines().filter_map(|l| l.split_once(": "));
    let strings = |cells: &[u64]| cells.iter().map(u64::to_string).collect::<Vec<_>>();

    let ocalls = observed_ocalls();
    let modules = || MODULES.lines().filter_map(|l| l.split_once(": "));
    let lines = |crates: &str| crates.split(' ').map(|c| src(c)[0]).sum::<u64>();
    let total: u64 = modules().map(|(_, crates)| lines(crates)).sum();
    let mut sums = [total, 0, 0];
    let mut rows: Vec<Vec<String>> = modules()
        .map(|(module, crates)| {
            // `lthread` enters once and stays (`enter_persistent`) and has
            // one way out, the slot's request.
            let interface = match crates {
                "core sgxsim" => [Ecall::ALL.len() as u64, ocalls.len() as u64],
                "lthread" => [1, 1],
                _ => [0, 0],
            };
            (sums[1], sums[2]) = (sums[1] + interface[0], sums[2] + interface[1]);
            let share = format!("{:.1}%", lines(crates) as f64 / total as f64 * 100.0);
            let cells = [module.to_string(), lines(crates).to_string(), share];
            [cells.to_vec(), strings(&interface)].concat()
        })
        .collect();
    let totals = [sums[0].to_string(), "100%".into()];
    rows.push([vec!["Total".into()], totals.to_vec(), strings(&sums[1..])].concat());
    print_table(
        "Tab 1: code lines and enclave interface of the reproduction",
        &["module", "code lines", "share", "#ecalls", "#ocalls"],
        &rows,
    );
    let ocalls: Vec<&str> = ocalls.into_iter().collect();
    println!("\nocalls observed: {}", ocalls.join(", "));

    let mut sums = [0u64; 4];
    let mut rows: Vec<Vec<String>> = (crates.iter())
        .map(|name| {
            let inside = in_enclave().filter(|(p, _)| p.starts_with(&format!("crates/{name}/")));
            let inside: u64 = inside.map(|(p, _)| tally(&root.join(p))[0]).sum();
            let [lines, unsafes, panics] = src(name);
            let row = [lines, inside, unsafes, panics];
            sums.iter_mut().zip(row).for_each(|(s, n)| *s += n);
            [vec![name.clone()], strings(&row)].concat()
        })
        .collect();
    rows.push([vec!["total".into()], strings(&sums)].concat());
    let headers = [
        "crate",
        "code lines",
        "in-enclave lines",
        "unsafe",
        "unwrap/expect",
    ];
    print_table(
        "Per crate: code lines under src/, and panic and unsafe sites",
        &headers,
        &rows,
    );

    let rows: Vec<Vec<String>> = in_enclave()
        .map(|(p, why)| vec![p.into(), tally(&root.join(p))[0].to_string(), why.into()])
        .collect();
    print_table(
        "What runs inside the enclave",
        &["path", "code lines", "why"],
        &rows,
    );
    println!(
        "\npaper: 344,900 LOC total (78.1% LibreSSL), 209 ecalls / 55 ocalls. The Rust \
         reproduction is far smaller because the TLS stack is purpose-built and the interface \
         is {} coarse ecalls rather than the SDK's per-function wrappers.",
        Ecall::ALL.len()
    );
}
