//! Property-based tests for the TEE simulator's security mechanisms
//! (deterministic `plat::check` harness; same properties and case
//! counts as the original proptest suite).

use libseal_sgxsim::cost::CostModel;
use libseal_sgxsim::enclave::EnclaveBuilder;
// Sealing runs on the x86-64 AES-GCM kernels only.
#[cfg(target_arch = "x86_64")]
use libseal_sgxsim::seal::{seal_with_key, unseal_with_key, SealingPolicy};

plat::prop! {
    #![cases(32)]

    #[cfg(target_arch = "x86_64")]
    fn sealing_roundtrip(g) {
        let key = g.byte_array::<32>();
        let nonce = g.byte_array::<12>();
        let aad = g.bytes(0..32);
        let data = g.bytes(0..600);
        let sealed = seal_with_key(&key, &nonce, &aad, &data);
        assert_eq!(unseal_with_key(&key, &aad, &sealed).unwrap(), data);
    }

    #[cfg(target_arch = "x86_64")]
    fn sealed_blobs_resist_tampering(g) {
        let key = g.byte_array::<32>();
        let nonce = g.byte_array::<12>();
        let data = g.bytes(1..300);
        let mut sealed = seal_with_key(&key, &nonce, b"", &data);
        let idx = g.index(sealed.len());
        sealed[idx] ^= 0x01;
        assert!(unseal_with_key(&key, b"", &sealed).is_none());
    }

    #[cfg(target_arch = "x86_64")]
    fn enclave_seal_policies_are_isolated(g) {
        let data = g.bytes(0..200);
        let e = EnclaveBuilder::new(b"prop-enclave")
            .cost_model(CostModel::free())
            .build(|_| ());
        let (mr, signer) = e
            .ecall("probe", |_, sv| {
                (
                    sv.seal_data(SealingPolicy::MrEnclave, b"", &data),
                    sv.seal_data(SealingPolicy::MrSigner, b"", &data),
                )
            })
            .unwrap();
        // Cross-policy unsealing must fail; same-policy must succeed.
        e.ecall("probe", |_, sv| {
            assert!(sv.unseal_data(SealingPolicy::MrEnclave, b"", &mr).is_ok());
            assert!(sv.unseal_data(SealingPolicy::MrSigner, b"", &signer).is_ok());
            assert!(sv.unseal_data(SealingPolicy::MrSigner, b"", &mr).is_err());
            assert!(sv.unseal_data(SealingPolicy::MrEnclave, b"", &signer).is_err());
        })
        .unwrap();
    }

    fn transition_pricing_is_monotonic(g) {
        let a = g.u64() % 63 + 1;
        let b = g.u64() % 63 + 1;
        let m = CostModel::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(m.transition_cycles(lo) <= m.transition_cycles(hi));
    }
}
