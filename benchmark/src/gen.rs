//! Seeded request generators and the client-side models that check
//! every response.
//!
//! The program under test only ever sees the generated requests; the
//! seed never reaches it. Each client owns one [`Script`]: it emits the
//! next request and, given the response, says whether the service
//! answered correctly according to the client's *own* model of what it
//! has written so far (its pushed refs, its committed files).

use std::collections::BTreeMap;

use libseal_httpx::http::{Request, Response};
use libseal_httpx::json::Json;

/// SplitMix64: small, seedable, and good enough to decorrelate
/// request streams. Not used for anything security relevant.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for (`seed`, `workload`, `rep`, `client`).
    pub fn stream(seed: u64, workload: &str, rep: u64, client: u64) -> Rng {
        let mut h = Rng(seed ^ 0x6c69_6273_6561_6c00);
        for b in workload.bytes() {
            h.0 = h.0.wrapping_add(u64::from(b));
            h.next_u64();
        }
        h.0 ^= rep.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h.next_u64();
        h.0 ^= client.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h.next_u64();
        h
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn hex(&mut self, chars: usize) -> String {
        let mut s = String::with_capacity(chars + 16);
        while s.len() < chars {
            s.push_str(&format!("{:016x}", self.next_u64()));
        }
        s.truncate(chars);
        s
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n + 8);
        while out.len() < n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(n);
        out
    }
}

/// One client's request stream plus its response oracle.
pub trait Script: Send {
    fn next_request(&mut self) -> Request;
    /// Whether `rsp` correctly answers the request `next_request`
    /// returned last.
    fn check(&mut self, rsp: &Response) -> bool;
}

/// `GET /content/<size>`: the Apache static-content workload. The
/// seed only salts an ignored query string, so the server does the
/// same work for every seed while the request bytes differ.
pub struct StaticGet {
    rng: Rng,
    size: usize,
}

impl StaticGet {
    pub fn new(rng: Rng, size: usize) -> StaticGet {
        StaticGet { rng, size }
    }
}

fn is_static_body(rsp: &Response, size: usize) -> bool {
    rsp.status == 200 && rsp.body.len() == size && rsp.body.iter().all(|&b| b == b'x')
}

impl Script for StaticGet {
    fn next_request(&mut self) -> Request {
        let target = format!("/content/{}?r={}", self.size, self.rng.hex(16));
        Request::new("GET", &target, Vec::new())
    }

    fn check(&mut self, rsp: &Response) -> bool {
        is_static_body(rsp, self.size)
    }
}

/// Alternates a `size`-byte download with a `size`-byte upload, so
/// both directions of the record layer carry the same volume.
pub struct BulkUpDown {
    rng: Rng,
    size: usize,
    body: Vec<u8>,
    upload: bool,
}

impl BulkUpDown {
    pub fn new(mut rng: Rng, size: usize) -> BulkUpDown {
        let body = rng.bytes(size);
        BulkUpDown {
            rng,
            size,
            body,
            upload: true,
        }
    }
}

impl Script for BulkUpDown {
    fn next_request(&mut self) -> Request {
        self.upload = !self.upload;
        let salt = self.rng.hex(16);
        if self.upload {
            // Re-salt the head of the body so no two uploads are equal.
            self.body[..16].copy_from_slice(salt.as_bytes());
            Request::new("POST", &format!("/content/0?r={salt}"), self.body.clone())
        } else {
            let target = format!("/content/{}?r={salt}", self.size);
            Request::new("GET", &target, Vec::new())
        }
    }

    fn check(&mut self, rsp: &Response) -> bool {
        is_static_body(rsp, if self.upload { 0 } else { self.size })
    }
}

/// The Git smart-HTTP dialect: two pushes, then one fetch whose ref
/// advertisement must equal the client's model of its own pushes.
/// Which branch moves follows from the op index and the seed only
/// picks the names and commit ids, so every seed costs the same work.
pub struct GitClient {
    rng: Rng,
    repo: String,
    refs: BTreeMap<String, String>,
    step: u64,
    pushed: Option<String>,
}

const GIT_BRANCHES: u64 = 4;

impl GitClient {
    pub fn new(mut rng: Rng) -> GitClient {
        let repo = format!("repo-{}", rng.hex(12));
        GitClient {
            rng,
            repo,
            refs: BTreeMap::new(),
            step: 0,
            pushed: None,
        }
    }

    pub fn repo(&self) -> &str {
        &self.repo
    }
}

impl Script for GitClient {
    fn next_request(&mut self) -> Request {
        self.step += 1;
        if self.step.is_multiple_of(3) {
            self.pushed = None;
            let target = format!("/repo/{}/info/refs?service=git-upload-pack", self.repo);
            return Request::new("GET", &target, Vec::new());
        }
        let branch = format!("refs/heads/b{}", self.step % GIT_BRANCHES);
        let new = self.rng.hex(40);
        let old = self
            .refs
            .insert(branch.clone(), new.clone())
            .unwrap_or_else(|| "0".repeat(40));
        self.pushed = Some(branch.clone());
        Request::new(
            "POST",
            &format!("/repo/{}/git-receive-pack", self.repo),
            format!("{old} {new} {branch}\n").into_bytes(),
        )
    }

    fn check(&mut self, rsp: &Response) -> bool {
        if rsp.status != 200 {
            return false;
        }
        match &self.pushed {
            Some(branch) => rsp.body == format!("ok {branch}\n").as_bytes(),
            None => {
                let want: String = self
                    .refs
                    .iter()
                    .map(|(branch, cid)| format!("{cid} {branch}\n"))
                    .collect();
                rsp.body == want.as_bytes()
            }
        }
    }
}

/// Dropbox metadata traffic over a bounded file set: `commit_batch`
/// alternates with `list`, and every listing must equal the client's
/// model of its account. The seed picks names and block hashes only.
pub struct DropboxClient {
    rng: Rng,
    account: String,
    host: String,
    files: BTreeMap<String, (Vec<String>, i64)>,
    listing: bool,
    commits: u64,
    /// Commits seen per file: every third one deletes it.
    visits: [u64; DROPBOX_FILE_SET as usize],
}

/// Distinct files per account. Without a bound every `list` logs the
/// whole ever-growing account and the workload measures nothing but
/// that growth.
pub const DROPBOX_FILE_SET: u64 = 16;

impl DropboxClient {
    pub fn new(mut rng: Rng) -> DropboxClient {
        let account = format!("acct-{}", rng.hex(12));
        let host = format!("host-{}", rng.hex(6));
        DropboxClient {
            rng,
            account,
            host,
            files: BTreeMap::new(),
            listing: true,
            commits: 0,
            visits: [0; DROPBOX_FILE_SET as usize],
        }
    }
}

impl Script for DropboxClient {
    fn next_request(&mut self) -> Request {
        self.listing = !self.listing;
        if self.listing {
            let body = format!(r#"{{"account":"{}","host":"{}"}}"#, self.account, self.host);
            return Request::new("POST", "/dropbox/list", body.into_bytes());
        }
        // The op index, not the seed, decides which file is touched
        // and how, so every seed costs the same work: a file is
        // created, updated, deleted, created again, ... each file at
        // its own phase, and two thirds of the set is live in steady
        // state.
        let index = (self.commits * 7 % DROPBOX_FILE_SET) as usize;
        let file = format!("file-{index:02}.bin");
        let delete = self.files.contains_key(&file) && (self.visits[index] + index as u64) % 3 == 2;
        self.visits[index] += 1;
        self.commits += 1;
        let (blocks, size) = if delete {
            self.files.remove(&file);
            (Vec::new(), -1)
        } else {
            let blocks: Vec<String> = (0..1 + self.commits % 3)
                .map(|_| self.rng.hex(32))
                .collect();
            let size = 4096 * blocks.len() as i64;
            self.files.insert(file.clone(), (blocks.clone(), size));
            (blocks, size)
        };
        let blocks_json: Vec<String> = blocks.iter().map(|b| format!("\"{b}\"")).collect();
        let body = format!(
            r#"{{"account":"{}","host":"{}","commits":[{{"file":"{}","blocks":[{}],"size":{}}}]}}"#,
            self.account,
            self.host,
            file,
            blocks_json.join(","),
            size
        );
        Request::new("POST", "/dropbox/commit_batch", body.into_bytes())
    }

    fn check(&mut self, rsp: &Response) -> bool {
        if rsp.status != 200 {
            return false;
        }
        let Ok(json) = Json::parse_bytes(&rsp.body) else {
            return false;
        };
        if !self.listing {
            return json.get("accepted").and_then(Json::as_i64) == Some(1);
        }
        let Some(listed) = json.get("files").and_then(Json::as_array) else {
            return false;
        };
        listed.len() == self.files.len()
            && listed
                .iter()
                .zip(&self.files)
                .all(|(got, (name, (blocks, size)))| {
                    let got_blocks: Option<Vec<&str>> = got
                        .get("blocks")
                        .and_then(Json::as_array)
                        .map(|a| a.iter().filter_map(Json::as_str).collect());
                    got.get("file").and_then(Json::as_str) == Some(name.as_str())
                        && got.get("size").and_then(Json::as_i64) == Some(*size)
                        && got_blocks.is_some_and(|g| g.iter().eq(blocks.iter()))
                })
    }
}

/// ownCloud Documents traffic for the read-back journals: a writer
/// sends edits, a reader polls and must be relayed every edit without
/// gaps, and the writer periodically leaves (saving a snapshot) and
/// rejoins (being served that snapshot back).
pub struct OwnCloudSession {
    rng: Rng,
    doc: String,
    step: u64,
    /// Highest sequence number the server has acknowledged.
    acked: i64,
    /// Highest sequence number relayed to the reader.
    relayed: i64,
    snapshot: String,
    expect: OwnCloudExpect,
}

enum OwnCloudExpect {
    Join,
    Ack,
    Relay,
    Left,
}

impl OwnCloudSession {
    pub fn new(mut rng: Rng) -> OwnCloudSession {
        let doc = format!("doc-{}", rng.hex(12));
        OwnCloudSession {
            rng,
            doc,
            step: 0,
            acked: 0,
            relayed: 0,
            snapshot: String::new(),
            expect: OwnCloudExpect::Join,
        }
    }

    fn post(&self, endpoint: &str, client: &str, extra: &str) -> Request {
        let body = format!(r#"{{"doc":"{}","client":"{client}"{extra}}}"#, self.doc);
        Request::new("POST", &format!("/owncloud/{endpoint}"), body.into_bytes())
    }
}

impl Script for OwnCloudSession {
    fn next_request(&mut self) -> Request {
        self.step += 1;
        match self.step {
            1 => {
                self.expect = OwnCloudExpect::Join;
                return self.post("join", "reader", "");
            }
            2 => {
                self.expect = OwnCloudExpect::Join;
                return self.post("join", "writer", "");
            }
            _ => {}
        }
        match self.step % 16 {
            0 => {
                self.expect = OwnCloudExpect::Left;
                self.snapshot = format!("snap-{}", self.rng.hex(24));
                let extra = format!(r#","snapshot":"{}","seq":{}"#, self.snapshot, self.acked);
                self.post("leave", "writer", &extra)
            }
            1 => {
                self.expect = OwnCloudExpect::Join;
                self.post("join", "writer", "")
            }
            n if n % 3 == 2 => {
                self.expect = OwnCloudExpect::Relay;
                self.post("sync", "reader", r#","ops":[]"#)
            }
            _ => {
                self.expect = OwnCloudExpect::Ack;
                let extra = format!(r#","ops":[{{"content":"+{}"}}]"#, self.rng.hex(8));
                self.post("sync", "writer", &extra)
            }
        }
    }

    fn check(&mut self, rsp: &Response) -> bool {
        if rsp.status != 200 {
            return false;
        }
        let Ok(json) = Json::parse_bytes(&rsp.body) else {
            return false;
        };
        match self.expect {
            OwnCloudExpect::Join => {
                json.get("snapshot").and_then(Json::as_str) == Some(self.snapshot.as_str())
            }
            OwnCloudExpect::Left => json.get("ok").and_then(Json::as_bool) == Some(true),
            OwnCloudExpect::Ack => {
                let acks = json.get("acks").and_then(Json::as_array).unwrap_or(&[]);
                let ok = acks.len() == 1 && acks[0].as_i64() == Some(self.acked + 1);
                self.acked += 1;
                ok
            }
            OwnCloudExpect::Relay => {
                let ops = json.get("ops").and_then(Json::as_array).unwrap_or(&[]);
                let gapless = ops.iter().enumerate().all(|(i, op)| {
                    op.get("seq").and_then(Json::as_i64) == Some(self.relayed + 1 + i as i64)
                });
                self.relayed += ops.len() as i64;
                gapless && self.relayed == self.acked
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_requests(script: &mut dyn Script, n: usize) -> Vec<u8> {
        (0..n)
            .flat_map(|_| script.next_request().to_bytes())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        type Make = fn(Rng) -> Box<dyn Script>;
        let makers: [(&str, Make); 5] = [
            ("static", |r| Box::new(StaticGet::new(r, 1024))),
            ("bulk", |r| Box::new(BulkUpDown::new(r, 4096))),
            ("git", |r| Box::new(GitClient::new(r))),
            ("dropbox", |r| Box::new(DropboxClient::new(r))),
            ("owncloud", |r| Box::new(OwnCloudSession::new(r))),
        ];
        for (name, make) in makers {
            let a = first_requests(make(Rng::stream(7, name, 0, 0)).as_mut(), 40);
            let b = first_requests(make(Rng::stream(7, name, 0, 0)).as_mut(), 40);
            let c = first_requests(make(Rng::stream(8, name, 0, 0)).as_mut(), 40);
            let d = first_requests(make(Rng::stream(7, name, 0, 1)).as_mut(), 40);
            assert_eq!(a, b, "{name}: same seed must give identical bytes");
            assert_ne!(a, c, "{name}: another seed must give other bytes");
            assert_ne!(a, d, "{name}: another client must give other bytes");
        }
    }

    #[test]
    fn git_model_rejects_a_stale_advertisement() {
        let mut git = GitClient::new(Rng::stream(1, "git", 0, 0));
        let advertised = |git: &GitClient| -> Vec<u8> {
            let lines: String = git.refs.iter().map(|(b, c)| format!("{c} {b}\n")).collect();
            lines.into_bytes()
        };
        let round = |git: &mut GitClient| {
            for _ in 0..2 {
                let _push = git.next_request();
                let ok = format!("ok {}\n", git.pushed.as_ref().unwrap());
                assert!(git.check(&Response::new(200, ok.into_bytes())));
            }
            let _fetch = git.next_request();
        };
        round(&mut git);
        let first = advertised(&git);
        assert!(git.check(&Response::new(200, first.clone())));
        // Two more pushes later, the first advertisement is stale.
        round(&mut git);
        assert!(!git.check(&Response::new(200, first)));
    }

    #[test]
    fn dropbox_model_rejects_a_hidden_file() {
        let mut dbx = DropboxClient::new(Rng::stream(3, "dropbox", 0, 0));
        let _commit = dbx.next_request();
        assert!(dbx.check(&Response::new(200, br#"{"ok":true,"accepted":1}"#.to_vec())));
        let _list = dbx.next_request();
        assert!(!dbx.check(&Response::new(200, br#"{"files":[]}"#.to_vec())));
    }
}
