//! The measurement harness: every table and figure of the paper's
//! evaluation (§8), regenerated.
//!
//! Each experiment is a pure function returning structured rows, consumed
//! by the `repro` binary, which prints paper-style tables and validates
//! each JSON artifact before writing it. Experiments take explicit budgets
//! so tests can run scaled-down versions of the same code paths the full
//! reproduction uses. Speed is measured by the separate `perfbench/`
//! package, not here.
//!
//! | Function | Paper artefact |
//! |---|---|
//! | [`experiments::table1`] | Table 1 — static characteristics of the corpus |
//! | [`experiments::fig3`] | Fig. 3 — AndroFish variable traces |
//! | [`experiments::table2`] | Table 2 — injected bombs per flagship |
//! | [`experiments::table3`] | Table 3 — time to first triggered bomb (users) |
//! | [`experiments::table4`] | Table 4 — outer conditions satisfied by fuzzers |
//! | [`experiments::fig5`] | Fig. 5 — bombs triggered by Dynodroid over an hour |
//! | [`experiments::analysts`] | §8.3.2 — human analysts with env mutation |
//! | [`experiments::table5`] | Table 5 — execution-time overhead |
//! | [`experiments::false_positives`] | §8.4 — zero false positives |
//! | [`experiments::code_size`] | §8.4 — code-size increase |
//! | [`experiments::fig4`] | Fig. 4 — outer-condition strength |
//! | [`experiments::resilience`] | §5 — the attack × protection matrix |
//! | [`experiments::brute_force`] | §5.1/§8.3.1 — brute-force resistance |
//! | [`experiments::ablation`] | DESIGN.md ablations |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod print;

/// Developer/pirate keypair fixture shared by all experiments so results
/// are reproducible run-to-run.
pub fn fixed_keys() -> (bombdroid_apk::DeveloperKey, bombdroid_apk::DeveloperKey) {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xB0_0B5);
    (
        bombdroid_apk::DeveloperKey::generate(&mut rng),
        bombdroid_apk::DeveloperKey::generate(&mut rng),
    )
}
