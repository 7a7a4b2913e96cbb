//! Fault-path contract of the fleet engine, driven at integration level:
//! a panicking task surfaces as a typed per-task error in its own slot,
//! the pool never deadlocks or aborts, and every other task still
//! completes with its result in index order.

use bombdroid_core::{derive_seed, run_fleet, FleetConfig, FleetError};

#[test]
fn panicking_task_is_isolated_and_typed() {
    for threads in [1usize, 2, 8] {
        let config = FleetConfig::serial(0xFA17).with_threads(threads);
        let results: Vec<Result<u64, FleetError<String>>> =
            run_fleet(config, vec![(); 16], |ctx, ()| {
                if ctx.index == 5 {
                    panic!("task 5 exploded on purpose");
                }
                Ok(ctx.seed)
            });
        assert_eq!(results.len(), 16, "every slot filled ({threads} threads)");
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                match r {
                    Err(FleetError::Panicked(msg)) => {
                        assert!(msg.contains("exploded"), "payload preserved: {msg}");
                    }
                    other => panic!("slot 5 must be Panicked, got {other:?}"),
                }
            } else {
                // Remaining tasks complete, in index order, with the seed
                // the determinism contract assigns to their index.
                assert_eq!(
                    r.as_ref().expect("healthy task succeeds"),
                    &derive_seed(0xFA17, i as u64),
                    "slot {i} ({threads} threads)"
                );
            }
        }
    }
}

#[test]
fn typed_task_errors_fill_their_slots() {
    let config = FleetConfig::serial(1).with_threads(4);
    let results: Vec<Result<usize, FleetError<String>>> =
        run_fleet(config, (0..10usize).collect(), |_ctx, i| {
            if i % 3 == 0 {
                Err(format!("task {i} declined"))
            } else {
                Ok(i * 2)
            }
        });
    for (i, r) in results.iter().enumerate() {
        if i % 3 == 0 {
            match r {
                Err(FleetError::Task(msg)) => assert_eq!(msg, &format!("task {i} declined")),
                other => panic!("slot {i} must be a typed Task error, got {other:?}"),
            }
        } else {
            assert_eq!(r.as_ref().unwrap(), &(i * 2));
        }
    }
}

#[test]
fn many_panics_do_not_deadlock_the_pool() {
    // More panicking tasks than workers: if a panic poisoned a worker or a
    // slot lock, later tasks would hang or be lost. All 64 slots must
    // resolve either way.
    let config = FleetConfig::serial(2).with_threads(4);
    let results: Vec<Result<usize, FleetError<String>>> =
        run_fleet(config, vec![(); 64], |ctx, ()| {
            if ctx.index % 2 == 0 {
                panic!("even task {}", ctx.index);
            }
            Ok(ctx.index)
        });
    assert_eq!(results.len(), 64);
    let (ok, panicked): (Vec<_>, Vec<_>) = results.iter().partition(|r| r.is_ok());
    assert_eq!(ok.len(), 32);
    assert_eq!(panicked.len(), 32);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(r.is_ok(), i % 2 == 1, "slot {i} parity");
    }
}

#[test]
fn panic_payload_kinds_are_reported() {
    // &str and String payloads carry their message; other payload types
    // degrade to a stable placeholder instead of garbage.
    let config = FleetConfig::serial(3).with_threads(2);
    let results: Vec<Result<(), FleetError<String>>> =
        run_fleet(config, vec![(); 3], |ctx, ()| match ctx.index {
            0 => panic!("plain &str payload"),
            1 => panic!("{}", format!("formatted String payload {}", ctx.index)),
            _ => std::panic::panic_any(42i32),
        });
    let msgs: Vec<String> = results
        .into_iter()
        .map(|r| match r {
            Err(FleetError::Panicked(m)) => m,
            other => panic!("expected panics, got {other:?}"),
        })
        .collect();
    assert_eq!(msgs[0], "plain &str payload");
    assert_eq!(msgs[1], "formatted String payload 1");
    assert_eq!(msgs[2], "non-string panic payload");
}
