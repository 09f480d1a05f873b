//! §4.2 micro-benchmark: the three transition-elimination
//! optimisations.
//!
//! The paper instruments Apache and finds that (1) the untrusted
//! memory pool, (2) in-enclave locks/RNG and (3) keeping ex_data
//! outside together cut ecalls by up to 31% and ocalls by up to 49%,
//! improving throughput by up to 70%.
//!
//! This binary replays a per-request call pattern modelled on that
//! instrumentation against the simulated enclave, toggling the
//! optimisations, and reports transition counts and throughput.
//!
//! ```sh
//! cargo run --release -p libseal-bench --bin micro_transitions
//! ```

use std::sync::Arc;
use std::time::Instant;

use libseal_bench::*;
use libseal_sgxsim::cost::CostModel;
use libseal_sgxsim::enclave::{Enclave, EnclaveBuilder};

#[derive(Clone, Copy)]
struct Opts {
    pool: bool,
    in_enclave_rng: bool,
    ex_data_outside: bool,
}

/// Per-request pattern (from the paper's Apache instrumentation, per
/// TLS request). The proportions matter: only part of the traffic is
/// removable by the optimisations — socket I/O ocalls and the TLS
/// protocol ecalls remain — which is why the paper lands at -31%
/// ecalls / -49% ocalls rather than eliminating everything.
const ALLOCS_PER_REQ: usize = 3; // removable by opt 1 (2 ocalls each)
const RNG_PER_REQ: usize = 1; // removable by opt 2
const LOCKS_PER_REQ: usize = 1; // removable by opt 2
const EXDATA_PER_REQ: usize = 3; // removable by opt 3 (1 ecall each)
const FIXED_ECALLS: usize = 4; // TLS protocol entries that must remain
const FIXED_OCALLS: usize = 7; // socket read/write/poll that must remain

fn run(enclave: &Arc<Enclave<()>>, opts: Opts, requests: u64) -> (f64, u64, u64) {
    let services = enclave.services();
    services.stats().reset();
    let t0 = Instant::now();
    for _ in 0..requests {
        // The request's main processing ecall (ssl_read path).
        enclave
            .ecall("ssl_read", |_, sv| {
                for _ in 0..ALLOCS_PER_REQ {
                    if !opts.pool {
                        // Without the preallocated untrusted pool a BIO
                        // buffer is an untrusted malloc, freed later.
                        sv.ocall("malloc", || vec![0u8; 256]);
                        sv.ocall("free_later", || ());
                    }
                }
                for _ in 0..RNG_PER_REQ {
                    if opts.in_enclave_rng {
                        let mut b = [0u8; 16];
                        sv.fill_random(&mut b);
                    } else {
                        sv.ocall("read_urandom", || ());
                    }
                }
                for _ in 0..LOCKS_PER_REQ {
                    if !opts.in_enclave_rng {
                        // Without optimisation 2 the pthread lock is an
                        // ocall; with it, SDK locks stay inside.
                        sv.ocall("pthread_mutex", || ());
                    }
                }
            })
            .expect("ecall");
        // Application ex_data accesses (Apache stores the request in
        // the TLS object).
        for _ in 0..EXDATA_PER_REQ {
            if opts.ex_data_outside {
                // Shadow access outside: no transition.
            } else {
                enclave.ecall("get_ex_data", |_, _| ()).expect("ecall");
            }
        }
        // TLS protocol entries and socket I/O that no optimisation can
        // remove (ssl_pending, handshake state checks, reads/writes).
        for _ in 0..FIXED_ECALLS {
            enclave.ecall("ssl_state", |_, _| ()).expect("ecall");
        }
        // The response write ecall plus its socket-I/O ocalls.
        enclave
            .ecall("ssl_write", |_, sv| {
                for _ in 0..FIXED_OCALLS {
                    sv.ocall("socket_io", || ());
                }
            })
            .expect("ecall");
    }
    let elapsed = t0.elapsed();
    let snap = enclave.services().stats().snapshot();
    (
        requests as f64 / elapsed.as_secs_f64(),
        snap.ecalls,
        snap.ocalls,
    )
}

fn main() {
    let enclave = Arc::new(
        EnclaveBuilder::new(b"transition-opts")
            .cost_model(CostModel::default())
            .tcs_count(4)
            .build(|_| ()),
    );
    let requests = if full_sweep() { 20_000 } else { 4_000 };

    // The optimisations accumulate: row `i` has the first `i` switched on.
    let labels = [
        "no optimisations",
        "+ memory pool (opt 1)",
        "+ in-enclave locks/RNG (opt 2)",
        "+ ex_data outside (opt 3)",
    ];
    let opts = |i: usize| Opts {
        pool: i >= 1,
        in_enclave_rng: i >= 2,
        ex_data_outside: i >= 3,
    };

    // Transition counts repeat exactly; only the throughput has a spread.
    let r = repeat(labels.len(), |i| run(&enclave, opts(i), requests));
    let per_req = |count: u64| format!("{:.2}", count as f64 / requests as f64);
    let delta = |now: u64, base: u64| format!("{:+.0}%", (now as f64 / base as f64 - 1.0) * 100.0);
    let (_, base_ecalls, base_ocalls) = r.reps[0][0];
    let rows: Vec<Vec<String>> = (0..labels.len())
        .map(|i| {
            let (_, ecalls, ocalls) = r.reps[0][i];
            vec![
                labels[i].to_string(),
                per_req(ecalls),
                per_req(ocalls),
                delta(ecalls, base_ecalls),
                delta(ocalls, base_ocalls),
                r.of(i, |t| t.0).cell(0),
                match i {
                    0 => "-".to_string(),
                    _ => r.vs(i, 0, |t| t.0).pct_cell(),
                },
            ]
        })
        .collect();
    print_table(
        "§4.2 micro: transition-elimination optimisations",
        &[
            "configuration",
            "ecalls/req",
            "ocalls/req",
            "ecall delta",
            "ocall delta",
            "req/s",
            "throughput delta (paired)",
        ],
        &rows,
    );
    println!("\npaper anchors: up to -31% ecalls, -49% ocalls, +70% throughput");
}
