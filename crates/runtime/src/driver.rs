//! Event generation and session driving.
//!
//! Two populations exercise an app (paper §1, observation D1/D2):
//!
//! * **Users** ([`UserEventSource`]) play the app purposefully: they favour
//!   high-weight entry points and *salient* input values — menu choices,
//!   meaningful commands, habitual quantities. [`param_favorites`] derives
//!   those salient values deterministically from the entry point identity,
//!   and the corpus generator picks qualified-condition constants from the
//!   same set, which is exactly why real users keep satisfying the app's
//!   own branch conditions while random fuzzing rarely does.
//! * **Random drivers** ([`RandomEventSource`]) model Monkey-style blackbox
//!   input: uniform entry choice, uniform draws from the full parameter
//!   domain. (The smarter fuzzers of the paper's Table 4 live in
//!   `bombdroid-attacks` and build on this.)

use crate::value::RtValue;
use crate::vm::Vm;
use bombdroid_crypto::sha1;
use bombdroid_dex::{DexFile, ParamDomain, Value};
use rand::{rngs::StdRng, Rng};
use std::sync::Arc;

/// One event to fire: entry-point index plus arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct EventInvocation {
    /// Index into the DEX file's entry-point table.
    pub entry_index: usize,
    /// Arguments matching the entry point's parameter domains.
    pub args: Vec<RtValue>,
}

/// A stream of events aimed at an app.
pub trait EventSource {
    /// Produces the next event, or `None` when the source is exhausted.
    fn next_event(&mut self, dex: &DexFile, rng: &mut StdRng) -> Option<EventInvocation>;
}

/// Number of salient values derived per parameter.
pub const FAVORITE_COUNT: usize = 6;

/// Derives the salient ("user favourite") values of a parameter. Stable
/// across processes: keyed by the entry-point event name and parameter
/// index, so the corpus generator and the user driver agree without
/// sharing state.
pub fn param_favorites(domain: &ParamDomain, event: &str, param_index: usize) -> Vec<Value> {
    match domain {
        ParamDomain::Choice(vs) => vs.clone(),
        ParamDomain::IntRange(lo, hi) => {
            let span = (hi - lo).max(1) as u128;
            let mut out = vec![Value::Int(*lo), Value::Int(*hi)];
            for k in 0..FAVORITE_COUNT {
                let d = sha1::digest(format!("fav|{event}|{param_index}|{k}").as_bytes());
                let x = d[..8]
                    .iter()
                    .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
                    as u128;
                out.push(Value::Int(lo + (x % span) as i64));
            }
            out
        }
        ParamDomain::Text { .. } => (0..FAVORITE_COUNT)
            .map(|k| {
                let d = sha1::digest(format!("favtext|{event}|{param_index}|{k}").as_bytes());
                Value::str(syllable_word(&d[..4]))
            })
            .collect(),
    }
}

/// Renders bytes as a pronounceable lowercase word (used for favourite
/// text inputs — "commands users actually type").
fn syllable_word(bytes: &[u8]) -> String {
    const SYL: [&str; 16] = [
        "an", "be", "co", "du", "el", "fi", "go", "hu", "in", "jo", "ka", "li", "mo", "nu", "or",
        "pa",
    ];
    let mut s = String::new();
    for b in bytes {
        s.push_str(SYL[(b >> 4) as usize]);
        s.push_str(SYL[(b & 0xf) as usize]);
    }
    s
}

/// Draws uniformly from a parameter domain (fuzzer behaviour).
pub fn uniform_arg(domain: &ParamDomain, rng: &mut StdRng) -> RtValue {
    match domain {
        ParamDomain::IntRange(lo, hi) => RtValue::Int(rng.gen_range(*lo..=*hi)),
        ParamDomain::Choice(vs) => vs[rng.gen_range(0..vs.len())].clone().into(),
        ParamDomain::Text { max_len } => {
            let len = rng.gen_range(0..=*max_len as usize);
            let s: String = (0..len)
                .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
                .collect();
            RtValue::Str(Arc::from(s))
        }
    }
}

/// Draws a user-style argument: salient values most of the time, the full
/// domain occasionally.
pub fn user_arg(
    domain: &ParamDomain,
    event: &str,
    param_index: usize,
    rng: &mut StdRng,
) -> RtValue {
    if rng.gen_bool(0.75) {
        let favs = param_favorites(domain, event, param_index);
        if !favs.is_empty() {
            return favs[rng.gen_range(0..favs.len())].clone().into();
        }
    }
    uniform_arg(domain, rng)
}

/// Uniform random events over all entry points — the raw-input baseline.
#[derive(Debug, Clone, Default)]
pub struct RandomEventSource;

impl EventSource for RandomEventSource {
    fn next_event(&mut self, dex: &DexFile, rng: &mut StdRng) -> Option<EventInvocation> {
        if dex.entry_points.is_empty() {
            return None;
        }
        let entry_index = rng.gen_range(0..dex.entry_points.len());
        let ep = &dex.entry_points[entry_index];
        let args = ep.params.iter().map(|d| uniform_arg(d, rng)).collect();
        Some(EventInvocation { entry_index, args })
    }
}

/// User-style sessions: entry points weighted by `user_weight`, arguments
/// drawn from favourites.
#[derive(Debug, Clone, Default)]
pub struct UserEventSource;

impl EventSource for UserEventSource {
    fn next_event(&mut self, dex: &DexFile, rng: &mut StdRng) -> Option<EventInvocation> {
        if dex.entry_points.is_empty() {
            return None;
        }
        let total: f64 = dex
            .entry_points
            .iter()
            .map(|e| e.user_weight.max(0.0))
            .sum();
        let entry_index = if total <= 0.0 {
            rng.gen_range(0..dex.entry_points.len())
        } else {
            let mut roll = rng.gen_range(0.0..total);
            let mut chosen = dex.entry_points.len() - 1;
            for (i, e) in dex.entry_points.iter().enumerate() {
                let w = e.user_weight.max(0.0);
                if roll < w {
                    chosen = i;
                    break;
                }
                roll -= w;
            }
            chosen
        };
        let ep = &dex.entry_points[entry_index];
        let args = ep
            .params
            .iter()
            .enumerate()
            .map(|(i, d)| user_arg(d, &ep.event, i, rng))
            .collect();
        Some(EventInvocation { entry_index, args })
    }
}

/// Summary of a driven session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionReport {
    /// Events fired.
    pub events: u64,
    /// Events that completed without fault.
    pub completed: u64,
    /// Events ending in a fault (including responses firing).
    pub faulted: u64,
    /// Virtual ms at session end.
    pub end_ms: u64,
}

/// Drives `vm` with events from `source` for `minutes` of virtual time at
/// `events_per_minute`, inserting idle think-time between events.
///
/// Stops early if the app is killed or the source runs dry; a frozen app
/// keeps consuming wall-clock without progress, as on a real device.
pub fn run_session(
    vm: &mut Vm,
    source: &mut dyn EventSource,
    rng: &mut StdRng,
    minutes: u64,
    events_per_minute: u64,
) -> SessionReport {
    let mut report = SessionReport::default();
    let deadline_ms = vm.clock_ms().saturating_add(minutes.saturating_mul(60_000));
    let idle_ms = 60_000 / events_per_minute.max(1);
    while vm.clock_ms() < deadline_ms {
        if vm.is_killed() || vm.is_frozen() {
            break;
        }
        let dex = vm.pkg.dex.clone();
        let Some(ev) = source.next_event(&dex, rng) else {
            break;
        };
        let outcome = vm.fire_entry(ev.entry_index, ev.args);
        report.events += 1;
        if outcome.completed() {
            report.completed += 1;
        } else {
            report.faulted += 1;
        }
        vm.advance_ms(idle_ms);
    }
    report.end_ms = vm.clock_ms();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn favorites_are_deterministic_and_in_domain() {
        let d = ParamDomain::IntRange(10, 1_000);
        let a = param_favorites(&d, "onTap", 0);
        let b = param_favorites(&d, "onTap", 0);
        assert_eq!(a, b);
        for v in &a {
            match v {
                Value::Int(i) => assert!((10..=1_000).contains(i)),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Different events get different favourites.
        assert_ne!(a, param_favorites(&d, "onSwipe", 0));
    }

    #[test]
    fn text_favorites_are_pronounceable() {
        let d = ParamDomain::Text { max_len: 12 };
        for v in param_favorites(&d, "onSearch", 1) {
            let Value::Str(s) = v else {
                panic!("not a string")
            };
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn uniform_arg_respects_domains() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            match uniform_arg(&ParamDomain::IntRange(-5, 5), &mut rng) {
                RtValue::Int(i) => assert!((-5..=5).contains(&i)),
                other => panic!("unexpected {other:?}"),
            }
        }
        match uniform_arg(
            &ParamDomain::Choice(vec![Value::str("a"), Value::str("b")]),
            &mut rng,
        ) {
            RtValue::Str(s) => assert!(&*s == "a" || &*s == "b"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn user_args_mostly_hit_favorites() {
        let mut rng = StdRng::seed_from_u64(4);
        let d = ParamDomain::IntRange(0, 1_000_000);
        let favs: Vec<i64> = param_favorites(&d, "e", 0)
            .iter()
            .map(|v| match v {
                Value::Int(i) => *i,
                _ => unreachable!(),
            })
            .collect();
        let mut hits = 0;
        for _ in 0..1_000 {
            if let RtValue::Int(i) = user_arg(&d, "e", 0, &mut rng) {
                if favs.contains(&i) {
                    hits += 1;
                }
            }
        }
        // ~75% should be favourites; a uniform draw over a million values
        // would essentially never hit them.
        assert!(hits > 600, "only {hits}/1000 favourite hits");
    }
}
