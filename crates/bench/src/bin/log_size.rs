//! §6.5 log-size model: bytes of audit log per workload unit.
//!
//! Paper anchors: Git ~530 B per branch/tag pointer; ownCloud
//! 124-131 B per (single-character) update; Dropbox ~64 B of blocklist
//! hash per file (plus fixed metadata).
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin log_size
//! ```

use libseal::log::{LogBacking, NoGuard};
use libseal::{DropboxModule, GitModule, OwnCloudModule, ServiceModule};
use libseal_bench::{fresh_log, print_table};
use libseal_httpx::http::{Request, Response};

/// Git: one branch pointer update per request.
fn git_unit(i: u64) -> (Request, Vec<u8>) {
    let body = format!("old {i:040x} refs/heads/branch-{i}\n");
    let req = Request::new("POST", "/repo/r/git-receive-pack", body.into_bytes());
    (req, b"ok\n".to_vec())
}

/// ownCloud: one single-character update per request.
fn owncloud_unit(i: u64) -> (Request, Vec<u8>) {
    let body = format!(r#"{{"doc":"d","client":"c","ops":[{{"content":"x"}}],"i":{i}}}"#);
    let req = Request::new("POST", "/owncloud/sync", body.into_bytes());
    (
        req,
        format!(r#"{{"acks":[{}],"ops":[]}}"#, i + 1).into_bytes(),
    )
}

/// Dropbox: one file (one 32-byte blocklist hash) per request.
fn dropbox_unit(i: u64) -> (Request, Vec<u8>) {
    let body = format!(
        r#"{{"account":"a","host":"h","commits":[{{"file":"f{i}","blocks":["{i:064x}"],"size":4096}}]}}"#
    );
    let req = Request::new("POST", "/dropbox/commit_batch", body.into_bytes());
    (req, br#"{"ok":true}"#.to_vec())
}

type Unit = fn(u64) -> (Request, Vec<u8>);

fn main() {
    let n: u64 = 200;
    let services: [(&dyn ServiceModule, &str, &str, Unit, &str); 3] = [
        (&GitModule, "Git", "branch/tag pointer", git_unit, "530"),
        (
            &OwnCloudModule,
            "ownCloud",
            "single-char update",
            owncloud_unit,
            "124-131",
        ),
        (
            &DropboxModule,
            "Dropbox",
            "file (blocklist hash)",
            dropbox_unit,
            "~64 (hash) + metadata",
        ),
    ];
    let mut rows = Vec::new();
    for (ssm, name, unit, make, paper) in services {
        let mut log = fresh_log(ssm, LogBacking::Memory, Box::new(NoGuard));
        // Trim-state baseline: measure marginal cost per unit.
        let before = log.size_bytes();
        for i in 0..n {
            let (req, rsp) = make(i);
            let rsp = Response::new(200, rsp);
            ssm.log_pair(&req.to_bytes(), &rsp.to_bytes(), &mut log)
                .unwrap();
        }
        let per = (log.size_bytes() - before) as f64 / n as f64;
        rows.push(
            [name, unit, &format!("{per:.0}"), paper]
                .map(String::from)
                .to_vec(),
        );
    }
    print_table(
        "§6.5: audit log bytes per workload unit (including hash-chain rows)",
        &["service", "unit", "measured B/unit", "paper B/unit"],
        &rows,
    );
    println!(
        "\nnotes: measured sizes include this implementation's per-entry chain row \
         (sequence number, payload copy of the row, 32-byte hash), roughly doubling the \
         paper's data-only figures"
    );
}
