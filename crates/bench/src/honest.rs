//! Honest traffic, written once: the request streams a load generator
//! replays against a live server, the request/response pairs fed
//! straight to a service module, and the Git rows appended straight to
//! an audit log. Honest means protocol-consistent: a violation would
//! fire an invariant, block trimming and distort every measurement
//! taken over the log.

use std::collections::BTreeMap;

use libseal::log::{AuditLog, LogBacking, RollbackGuard};
use libseal::ServiceModule;
use libseal_crypto::ed25519::SigningKey;
use libseal_httpx::http::{Request, Response};
use libseal_sealdb::Value;

/// What the `i`-th request of a client is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// `GET /content/<n>`: static content of `n` bytes.
    Get(usize),
    /// Git pushes only: every request is a logged pair.
    GitPush,
    /// Each client works on its own repository (like distinct users),
    /// pushing twice then fetching.
    GitPushFetch,
    /// Each client edits its own document: a join, then a stream of
    /// edits (single characters with an occasional paragraph, §6.4).
    OwnCloudEdit,
    /// Dropbox `commit_batch` of one new 4 KB file into the client's
    /// own account (a list must name every file committed before it,
    /// so clients sharing an account would race the invariant).
    DropboxCommit,
    /// Dropbox `list` of the client's account, after four commits so
    /// that the listing, and the audited copy of it, is not empty.
    DropboxList,
}

impl Stream {
    /// The `i`-th request of client `client`.
    pub fn request(self, client: usize, i: u64) -> Request {
        match self {
            Stream::Get(size) => Request::new("GET", &format!("/content/{size}"), Vec::new()),
            Stream::GitPush => git_push(client, i),
            Stream::GitPushFetch if i % 3 == 2 => Request::new(
                "GET",
                &format!("/repo/repo-{client}/info/refs?service=git-upload-pack"),
                Vec::new(),
            ),
            Stream::GitPushFetch => git_push(client, i),
            Stream::OwnCloudEdit => owncloud_edit(client, i),
            Stream::DropboxCommit => dropbox_commit(client, i),
            Stream::DropboxList if i < 4 => dropbox_commit(client, i),
            Stream::DropboxList => Request::new(
                "POST",
                "/dropbox/list",
                format!(r#"{{"account":"acct-{client}","host":"h"}}"#).into_bytes(),
            ),
        }
    }
}

/// One push to the client's own repository, rotating over four
/// branches; the commit id is derived from (client, i) so no two
/// pushes collide.
fn git_push(client: usize, i: u64) -> Request {
    let branch = format!("refs/heads/b{}", i % 4);
    let cid: String = libseal_crypto::sha2::Sha256::digest(format!("{client}:{i}").as_bytes())
        .iter()
        .take(20)
        .map(|b| format!("{b:02x}"))
        .collect();
    Request::new(
        "POST",
        &format!("/repo/repo-{client}/git-receive-pack"),
        format!("old {cid} {branch}\n").into_bytes(),
    )
}

fn dropbox_commit(client: usize, i: u64) -> Request {
    let body = format!(
        r#"{{"account":"acct-{client}","host":"h","commits":[{{"file":"f{i}.bin","blocks":["{i:064x}"],"size":4096}}]}}"#
    );
    Request::new("POST", "/dropbox/commit_batch", body.into_bytes())
}

fn owncloud_edit(client: usize, i: u64) -> Request {
    let (doc, who) = (format!("doc-{client}"), format!("client-{client}"));
    if i == 0 {
        return Request::new(
            "POST",
            "/owncloud/join",
            format!(r#"{{"doc":"{doc}","client":"{who}"}}"#).into_bytes(),
        );
    }
    let content = if i.is_multiple_of(5) {
        format!("paragraph {i}: lorem ipsum dolor sit amet consectetur")
    } else {
        format!("+{}", (b'a' + (i % 26) as u8) as char)
    };
    Request::new(
        "POST",
        "/owncloud/sync",
        format!(r#"{{"doc":"{doc}","client":"{who}","ops":[{{"content":"{content}"}}]}}"#)
            .into_bytes(),
    )
}

/// A fresh audit log for `ssm`, under a fixed sealing key and signer.
pub fn fresh_log(
    ssm: &dyn ServiceModule,
    backing: LogBacking,
    guard: Box<dyn RollbackGuard>,
) -> AuditLog {
    AuditLog::open(
        backing,
        [0u8; 32],
        SigningKey::from_seed(&[1u8; 32]),
        guard,
        ssm.schema_sql(),
        ssm.tables(),
    )
    .expect("log")
}

fn text(s: &str) -> Value {
    Value::Text(s.into())
}

/// Appends one row of the Git SSM's `updates` relation (a push).
///
/// # Errors
///
/// What [`AuditLog::append`] returns.
pub fn git_update(log: &mut AuditLog, repo: &str, branch: &str, cid: &str) -> libseal::Result<()> {
    let t = Value::Integer(log.next_time() as i64);
    let row = [t, text(repo), text(branch), text(cid), text("update")];
    log.append("updates", &row)
}

/// Appends one row of the Git SSM's `advertisements` relation (what a
/// fetch was told the branch head is).
///
/// # Errors
///
/// What [`AuditLog::append`] returns.
pub fn git_advert(log: &mut AuditLog, repo: &str, branch: &str, cid: &str) -> libseal::Result<()> {
    let t = Value::Integer(log.next_time() as i64);
    log.append("advertisements", &[t, text(repo), text(branch), text(cid)])
}

/// A generator of honest (request bytes, response bytes) pairs for
/// [`ServiceModule::log_pair`].
pub trait Pairs {
    /// The next pair, consistent with every pair generated before it.
    fn next_pair(&mut self) -> (Vec<u8>, Vec<u8>);
}

fn pair(req: Request, ok_body: Vec<u8>) -> (Vec<u8>, Vec<u8>) {
    (req.to_bytes(), Response::new(200, ok_body).to_bytes())
}

/// Git: pushes over four branches; every third request fetches and the
/// advertisement faithfully lists every live branch.
#[derive(Default)]
pub struct GitPairs {
    i: u64,
    latest: BTreeMap<String, String>,
}

impl Pairs for GitPairs {
    fn next_pair(&mut self) -> (Vec<u8>, Vec<u8>) {
        self.i += 1;
        let i = self.i;
        if i.is_multiple_of(3) {
            let advert: String = self
                .latest
                .iter()
                .map(|(branch, cid)| format!("{cid} {branch}\n"))
                .collect();
            let path = "/repo/r/info/refs?service=git-upload-pack";
            return pair(Request::new("GET", path, Vec::new()), advert.into_bytes());
        }
        let (branch, cid) = (format!("refs/heads/b{}", i % 4), format!("{i:040x}"));
        let body = format!("old {cid} {branch}\n").into_bytes();
        self.latest.insert(branch, cid);
        pair(
            Request::new("POST", "/repo/r/git-receive-pack", body),
            b"ok\n".to_vec(),
        )
    }
}

/// ownCloud: a client streams edits and periodically saves a snapshot
/// (enabling trimming of everything before it).
#[derive(Default)]
pub struct OwnCloudPairs {
    i: u64,
    seq: u64,
}

impl Pairs for OwnCloudPairs {
    fn next_pair(&mut self) -> (Vec<u8>, Vec<u8>) {
        self.i += 1;
        let (i, seq) = (self.i, self.seq);
        if i.is_multiple_of(20) {
            let body = format!(r#"{{"doc":"d","client":"c","snapshot":"v{i}","seq":{seq}}}"#);
            let req = Request::new("POST", "/owncloud/leave", body.into_bytes());
            return pair(req, br#"{"ok":true}"#.to_vec());
        }
        self.seq += 1;
        let body = format!(r#"{{"doc":"d","client":"c","ops":[{{"content":"+x{i}"}}]}}"#);
        let req = Request::new("POST", "/owncloud/sync", body.into_bytes());
        pair(
            req,
            format!(r#"{{"acks":[{}],"ops":[]}}"#, self.seq).into_bytes(),
        )
    }
}

/// Dropbox: commits rotate over a bounded working set of files; every
/// fourth request lists — faithfully.
#[derive(Default)]
pub struct DropboxPairs {
    i: u64,
    files: BTreeMap<String, String>,
}

impl Pairs for DropboxPairs {
    fn next_pair(&mut self) -> (Vec<u8>, Vec<u8>) {
        self.i += 1;
        let i = self.i;
        if i.is_multiple_of(4) {
            let items: Vec<String> = self
                .files
                .iter()
                .map(|(f, b)| format!(r#"{{"file":"{f}","blocks":["{b}"],"size":10}}"#))
                .collect();
            let body = br#"{"account":"a","host":"h"}"#.to_vec();
            let req = Request::new("POST", "/dropbox/list", body);
            return pair(
                req,
                format!(r#"{{"files":[{}]}}"#, items.join(",")).into_bytes(),
            );
        }
        let (file, blocks) = (format!("f{}", i % 25), format!("{i:064x}"));
        let body = format!(
            r#"{{"account":"a","host":"h","commits":[{{"file":"{file}","blocks":["{blocks}"],"size":10}}]}}"#
        );
        self.files.insert(file, blocks);
        let req = Request::new("POST", "/dropbox/commit_batch", body.into_bytes());
        pair(req, br#"{"ok":true}"#.to_vec())
    }
}
