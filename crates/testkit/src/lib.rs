//! # sparker-testkit
//!
//! A small, std-only property-testing harness: the workspace's in-repo
//! replacement for `proptest`, so the test suite builds with zero external
//! dependencies (see DESIGN.md §"Dependencies").
//!
//! The design is choice-stream ("Hypothesis-style") generation with
//! integrated shrinking:
//!
//! * A property is a closure over a [`Source`]. Every random decision the
//!   closure makes ([`Source::usize_in`], [`Source::f64_any`],
//!   [`Source::vec_of`], ...) draws one `u64` *choice* from a seeded
//!   [`rng::SplitMix64`] stream, and the harness records the sequence.
//! * When a case fails (returns an error via [`tk_assert!`] /
//!   [`tk_assert_eq!`], or panics), the harness **shrinks the recorded
//!   choice sequence, not the generated values**: it re-runs the same
//!   generator closure against truncated / chunk-deleted / per-choice
//!   binary-searched variants of the recording (draws past the end replay
//!   as 0). Because any choice sequence maps to a valid value, shrinking
//!   never needs type-specific shrinkers, and `map`-style derived data
//!   shrinks for free — this is why the harness stays ~200 lines where a
//!   value-shrinking framework would not.
//! * Choices shrink toward 0, and every generator maps 0 to its simplest
//!   output (the range minimum, an empty vec, `0.0`, `false`), so reported
//!   counterexamples are minimal in the usual sense.
//!
//! Runs are fully deterministic: the per-case seed is derived from
//! [`Config::seed`] and the case index, and a failure report prints both so
//! a failure reproduces exactly under `cargo test`.
//!
//! ```
//! use sparker_testkit::{check, Config, tk_assert};
//!
//! check(&Config::with_cases(64), |src| {
//!     let xs = src.vec_of(0..20, |s| s.i64_any());
//!     let mut sorted = xs.clone();
//!     sorted.sort();
//!     sorted.sort(); // sorting twice equals sorting once
//!     let mut once = xs.clone();
//!     once.sort();
//!     tk_assert!(sorted == once, "{sorted:?} != {once:?}");
//!     Ok(())
//! });
//! ```

pub mod rng;
pub mod source;

pub use source::Source;

/// A property failure: the message reported after shrinking.
#[derive(Debug, Clone)]
pub struct PropError {
    pub message: String,
}

impl PropError {
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

/// What a property closure returns per case.
pub type PropResult = Result<(), PropError>;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of random cases to run.
    pub cases: u32,
    /// Base seed; per-case seeds derive from it deterministically.
    pub seed: u64,
    /// Budget of candidate re-runs during shrinking.
    pub max_shrink_trials: u32,
}

impl Default for Config {
    fn default() -> Self {
        Self { cases: 64, seed: 0x005e_ed0f_c0ff_ee01, max_shrink_trials: 2000 }
    }
}

impl Config {
    pub fn with_cases(cases: u32) -> Self {
        Self { cases, ..Self::default() }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Fails the enclosing property with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! tk_assert {
    ($cond:expr) => {
        $crate::tk_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::PropError::new(format!($($fmt)+)));
        }
    };
}

/// Fails the enclosing property unless both sides compare equal.
#[macro_export]
macro_rules! tk_assert_eq {
    ($a:expr, $b:expr) => {{
        let (a, b) = (&$a, &$b);
        $crate::tk_assert!(a == b, "{:?} != {:?}", a, b);
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::tk_assert!(a == b, "{:?} != {:?}: {}", a, b, format!($($fmt)+));
    }};
}

fn run_once<F>(prop: &F, choices: Option<&[u64]>, seed: u64) -> Result<Vec<u64>, (Vec<u64>, PropError)>
where
    F: Fn(&mut Source) -> PropResult,
{
    let mut src = match choices {
        Some(c) => Source::replay(c.to_vec()),
        None => Source::random(seed),
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prop(&mut src)));
    let drawn = src.into_drawn();
    match outcome {
        Ok(Ok(())) => Ok(drawn),
        Ok(Err(e)) => Err((drawn, e)),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "property panicked (non-string payload)".to_string());
            Err((drawn, PropError::new(format!("panic: {msg}"))))
        }
    }
}

/// Tries `candidate`; returns the new (choices, error) if it still fails.
fn try_candidate<F>(prop: &F, candidate: &[u64]) -> Option<(Vec<u64>, PropError)>
where
    F: Fn(&mut Source) -> PropResult,
{
    run_once(prop, Some(candidate), 0).err()
}

/// Shrinks a failing choice sequence to a (locally) minimal one.
fn shrink<F>(prop: &F, mut choices: Vec<u64>, mut err: PropError, budget: u32) -> (Vec<u64>, PropError)
where
    F: Fn(&mut Source) -> PropResult,
{
    let mut trials = 0u32;
    let spend = |prop: &F, cand: &[u64], trials: &mut u32| -> Option<(Vec<u64>, PropError)> {
        if *trials >= budget {
            return None;
        }
        *trials += 1;
        try_candidate(prop, cand)
    };
    loop {
        let mut improved = false;

        // Pass 1: truncate the tail (halving first, then single steps).
        let mut cut = choices.len() / 2;
        while cut > 0 && !choices.is_empty() {
            let cand = choices[..choices.len().saturating_sub(cut)].to_vec();
            if let Some((_, e)) = spend(prop, &cand, &mut trials) {
                choices = cand;
                err = e;
                improved = true;
                cut = choices.len() / 2;
            } else {
                cut /= 2;
            }
        }

        // Pass 2: delete interior chunks.
        for chunk in [8usize, 4, 2, 1] {
            let mut i = 0;
            while i + chunk <= choices.len() {
                let mut cand = choices.clone();
                cand.drain(i..i + chunk);
                if let Some((_, e)) = spend(prop, &cand, &mut trials) {
                    choices = cand;
                    err = e;
                    improved = true;
                    // Same index now holds the next chunk; retry in place.
                } else {
                    i += 1;
                }
            }
        }

        // Pass 2.5: decrement a choice and delete the draw after it, as one
        // move. Length-prefix encodings (vec_of) need this: shortening a
        // collection by one means lowering its length draw *and* removing
        // one element draw, and neither change survives alone.
        // One attempt per index per round: the outer loop repeats while
        // anything improves, so multi-step shortenings still converge
        // without this pass linearly decrementing large values.
        let mut i = 0;
        while i < choices.len() {
            if choices[i] > 0 {
                let mut cand = choices.clone();
                cand[i] -= 1;
                if i + 1 < cand.len() {
                    cand.remove(i + 1);
                }
                if let Some((_, e)) = spend(prop, &cand, &mut trials) {
                    choices = cand;
                    err = e;
                    improved = true;
                }
            }
            i += 1;
        }

        // Pass 3: minimize each choice value by binary search toward 0.
        for i in 0..choices.len() {
            if choices[i] == 0 {
                continue;
            }
            let (mut lo, mut hi) = (0u64, choices[i]);
            // Invariant: `hi` fails; find smallest failing value in [lo, hi].
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                let mut cand = choices.clone();
                cand[i] = mid;
                if let Some((_, e)) = spend(prop, &cand, &mut trials) {
                    hi = mid;
                    err = e;
                } else {
                    lo = mid + 1;
                }
            }
            if hi != choices[i] {
                choices[i] = hi;
                improved = true;
            }
        }

        // Pass 4: lower *pairs* of equal choices together. Failures that
        // hinge on two drawn values colliding (a[0] == b[0]) can't shrink
        // either value alone — lowering one breaks the collision — so the
        // per-choice pass above stalls on them.
        for i in 0..choices.len() {
            if choices[i] == 0 {
                continue;
            }
            for j in i + 1..choices.len() {
                if choices[j] != choices[i] {
                    continue;
                }
                let (mut lo, mut hi) = (0u64, choices[i]);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let mut cand = choices.clone();
                    cand[i] = mid;
                    cand[j] = mid;
                    if let Some((_, e)) = spend(prop, &cand, &mut trials) {
                        hi = mid;
                        err = e;
                    } else {
                        lo = mid + 1;
                    }
                }
                if hi != choices[i] {
                    choices[i] = hi;
                    choices[j] = hi;
                    improved = true;
                }
            }
        }

        if !improved || trials >= budget {
            return (choices, err);
        }
    }
}

/// Runs `prop` for [`Config::cases`] random cases; on failure, shrinks the
/// recorded choice stream and panics with the minimal counterexample.
pub fn check<F>(cfg: &Config, prop: F)
where
    F: Fn(&mut Source) -> PropResult,
{
    for case in 0..cfg.cases {
        let case_seed = rng::mix(cfg.seed, case as u64);
        if let Err((drawn, err)) = run_once(&prop, None, case_seed) {
            let (min_choices, min_err) = shrink(&prop, drawn, err, cfg.max_shrink_trials);
            panic!(
                "property failed at case {case} (base seed {:#018x}, case seed {:#018x})\n\
                 minimal failure: {}\n\
                 shrunk choices ({} draws): {:?}",
                cfg.seed,
                case_seed,
                min_err.message,
                min_choices.len(),
                min_choices
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `check` expecting a failure; returns the panic report text.
    fn failure_report<F>(cfg: &Config, prop: F) -> String
    where
        F: Fn(&mut Source) -> PropResult,
    {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(cfg, prop)));
        match outcome {
            Ok(()) => panic!("property unexpectedly passed"),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .expect("check panics with a String report"),
        }
    }

    #[test]
    fn passing_property_runs_quietly() {
        check(&Config::with_cases(32), |src| {
            let v = src.vec_of(0..16, |s| s.u8_any());
            let mut w = v.clone();
            w.reverse();
            w.reverse();
            tk_assert_eq!(v, w);
            Ok(())
        });
    }

    /// The documented minimal case: `x < 101` over `0..1000` must shrink to
    /// exactly `x = 101`, the smallest failing input — the binary-search
    /// pass canonicalizes the raw choice to the boundary value.
    #[test]
    fn shrinks_threshold_to_boundary() {
        let report = failure_report(&Config::with_cases(256), |src| {
            let x = src.usize_in(0..1000);
            tk_assert!(x < 101, "x={x}");
            Ok(())
        });
        assert!(report.contains("x=101"), "report was: {report}");
    }

    /// A two-element interaction ("both lists non-empty and first elements
    /// equal") shrinks to the shortest vecs with the smallest elements.
    #[test]
    fn shrinks_vec_interaction() {
        let report = failure_report(&Config::with_cases(512), |src| {
            let a = src.vec_of(0..8, |s| s.usize_in(0..10));
            let b = src.vec_of(0..8, |s| s.usize_in(0..10));
            let collide = !a.is_empty() && !b.is_empty() && a[0] == b[0];
            tk_assert!(!collide, "a={a:?} b={b:?}");
            Ok(())
        });
        // Minimal: both singletons, both zero.
        assert!(report.contains("a=[0] b=[0]"), "report was: {report}");
    }

    /// Panics inside the property shrink just like `tk_assert!` failures.
    #[test]
    fn shrinks_panicking_property() {
        let report = failure_report(&Config::with_cases(128), |src| {
            let n = src.u64_in(0..1_000_000);
            assert!(n < 5000, "n too big: {n}");
            Ok(())
        });
        assert!(report.contains("n too big: 5000"), "report was: {report}");
    }

    /// The shrink-trial budget is a hard cap even for slow-to-shrink cases.
    #[test]
    fn shrink_budget_respected() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let runs = AtomicU32::new(0);
        let cfg = Config { cases: 1, seed: 3, max_shrink_trials: 10 };
        let _ = failure_report(&cfg, |src| {
            runs.fetch_add(1, Ordering::Relaxed);
            let _ = src.vec_of(32..64, |s| s.u64_any());
            Err(PropError::new("always fails"))
        });
        // 1 generation run + at most budget shrink trials (+1 slack for the
        // final bookkeeping pass).
        assert!(runs.load(Ordering::Relaxed) <= 12);
    }
}
