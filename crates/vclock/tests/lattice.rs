//! Property tests: vector clocks form a join-semilattice and `le` is a
//! partial order compatible with `join`.

use proptest::prelude::*;
use velodrome_events::ThreadId;
use velodrome_vclock::VectorClock;

fn arb_clock() -> impl Strategy<Value = VectorClock> {
    prop::collection::vec(0u64..20, 0..6).prop_map(|entries| {
        let mut c = VectorClock::new();
        for (i, v) in entries.into_iter().enumerate() {
            c.set(ThreadId::new(i as u32), v);
        }
        c
    })
}

/// A clock over sparse thread ids `0..16`, with its dense twin.
fn arb_sparse() -> impl Strategy<Value = (VectorClock, [u64; 16])> {
    prop::collection::vec((0u32..16, 0u64..5), 0..12).prop_map(|sets| {
        let (mut c, mut dense) = (VectorClock::new(), [0; 16]);
        for (t, v) in sets {
            c.set(ThreadId::new(t), v);
            dense[t as usize] = v;
        }
        (c, dense)
    })
}

fn joined(a: &VectorClock, b: &VectorClock) -> VectorClock {
    let mut j = a.clone();
    j.join(b);
    j
}

proptest! {
    #[test]
    fn join_is_commutative(a in arb_clock(), b in arb_clock()) {
        let ab = joined(&a, &b);
        let ba = joined(&b, &a);
        // Equality up to trailing zeros: compare via mutual le.
        prop_assert!(ab.le(&ba) && ba.le(&ab));
    }

    #[test]
    fn join_is_associative(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
        let left = joined(&joined(&a, &b), &c);
        let right = joined(&a, &joined(&b, &c));
        prop_assert!(left.le(&right) && right.le(&left));
    }

    #[test]
    fn join_is_idempotent_and_upper_bound(a in arb_clock(), b in arb_clock()) {
        let aa = joined(&a, &a);
        prop_assert!(aa.le(&a) && a.le(&aa));
        let ab = joined(&a, &b);
        prop_assert!(a.le(&ab));
        prop_assert!(b.le(&ab));
    }

    #[test]
    fn join_is_least_upper_bound(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
        if a.le(&c) && b.le(&c) {
            prop_assert!(joined(&a, &b).le(&c));
        }
    }

    #[test]
    fn le_is_a_partial_order(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
        prop_assert!(a.le(&a), "reflexive");
        if a.le(&b) && b.le(&a) {
            // Antisymmetry up to representation.
            prop_assert!(joined(&a, &b).le(&a));
        }
        if a.le(&b) && b.le(&c) {
            prop_assert!(a.le(&c), "transitive");
        }
    }

    #[test]
    fn inc_strictly_increases(a in arb_clock(), t in 0u32..6) {
        let t = ThreadId::new(t);
        let mut bumped = a.clone();
        bumped.inc(t);
        prop_assert!(a.le(&bumped));
        prop_assert!(!bumped.le(&a));
        prop_assert_eq!(bumped.get(t), a.get(t) + 1);
    }

    #[test]
    fn concurrent_is_symmetric_and_irreflexive(a in arb_clock(), b in arb_clock()) {
        prop_assert_eq!(a.concurrent_with(&b), b.concurrent_with(&a));
        prop_assert!(!a.concurrent_with(&a));
    }

    #[test]
    fn join_and_le_match_a_dense_reference(a in arb_sparse(), b in arb_sparse()) {
        let ((a, da), (b, db)) = (a, b);
        let ab = joined(&a, &b);
        for t in 0..16 {
            prop_assert_eq!(ab.get(ThreadId::new(t)), da[t as usize].max(db[t as usize]));
        }
        prop_assert_eq!(a.le(&b), da.iter().zip(&db).all(|(x, y)| x <= y));
        prop_assert_eq!(a.is_zero(), da.iter().all(|&x| x == 0));
    }
}
