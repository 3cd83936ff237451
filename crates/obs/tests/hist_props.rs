//! Property tests for the histogram through its public API: merge
//! associativity and lock-free concurrent recording. The quantile bound
//! against a sorted-sample oracle is stated in bucket widths, so it lives
//! beside the bucket math in the crate's own tests.

use proptest::collection::vec;
use proptest::{prop_assert_eq, proptest};
use secmod_obs::Histogram;

fn record_all(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #[test]
    fn merge_is_associative_and_equals_concatenation(
        a in vec(0u64..1_000_000, 0..100),
        b in vec(0u64..1_000_000, 0..100),
        c in vec(0u64..1_000_000, 0..100),
    ) {
        // (a ⊕ b) ⊕ c
        let left = record_all(&a);
        left.merge(&record_all(&b));
        left.merge(&record_all(&c));
        // a ⊕ (b ⊕ c)
        let bc = record_all(&b);
        bc.merge(&record_all(&c));
        let right = record_all(&a);
        right.merge(&bc);
        // record(a ++ b ++ c)
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        let oracle = record_all(&all);

        prop_assert_eq!(left.count(), oracle.count());
        prop_assert_eq!(right.count(), oracle.count());
        prop_assert_eq!(left.sum(), oracle.sum());
        prop_assert_eq!(right.sum(), oracle.sum());
        for q in [0.25, 0.5, 0.75, 0.99] {
            prop_assert_eq!(left.p(q), oracle.p(q));
            prop_assert_eq!(right.p(q), oracle.p(q));
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing(
        values in vec(0u64..1_000_000, 64..256),
        threads in 2usize..=6,
    ) {
        let shared = Histogram::new();
        std::thread::scope(|scope| {
            for chunk in values.chunks(values.len().div_ceil(threads)) {
                let shared = &shared;
                scope.spawn(move || {
                    for &v in chunk {
                        shared.record(v);
                    }
                });
            }
        });
        let sequential = record_all(&values);
        prop_assert_eq!(shared.count(), sequential.count());
        prop_assert_eq!(shared.sum(), sequential.sum());
        for q in [0.5, 0.99, 0.999] {
            prop_assert_eq!(shared.p(q), sequential.p(q));
        }
    }
}
