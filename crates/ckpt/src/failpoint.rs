//! Feature-gated fault-injection hooks.
//!
//! With the `failpoints` feature off (the default), [`fail_point`] is an
//! empty `#[inline(always)]` function and the whole module costs nothing —
//! the same compile-out discipline as `hsconas-telemetry`.
//!
//! With the feature on, named sites inside the checkpoint write path can
//! be armed to either return an error (`FailMode::Error`) or abort the
//! process (`FailMode::Abort`) on their Nth hit. The crash-safety tests
//! use this to prove that a kill at *any* write site leaves the previous
//! complete checkpoint intact and readable.
//!
//! Sites can also be armed from the environment for subprocess kill
//! tests: `HSCONAS_FAILPOINTS="site=abort@2,other=error@1"` arms `site`
//! to abort on its 2nd hit and `other` to error on its 1st.

#[cfg(feature = "failpoints")]
pub use enabled::*;

#[cfg(feature = "failpoints")]
mod enabled {
    use crate::error::CkptError;
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};

    /// What an armed fail point does when it triggers.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FailMode {
        /// Return `CkptError::FailPoint` from the instrumented operation.
        Error,
        /// Abort the process immediately (simulates SIGKILL mid-write).
        Abort,
    }

    #[derive(Debug)]
    struct Armed {
        mode: FailMode,
        /// Fires on the hit that makes the counter reach this value.
        after: u64,
        hits: u64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Armed>> {
        static REG: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
        REG.get_or_init(|| {
            let mut map = HashMap::new();
            if let Ok(spec) = std::env::var("HSCONAS_FAILPOINTS") {
                for entry in spec.split(',').filter(|s| !s.is_empty()) {
                    if let Some((site, rest)) = entry.split_once('=') {
                        let (mode, after) = match rest.split_once('@') {
                            Some((m, n)) => (m, n.parse().unwrap_or(1)),
                            None => (rest, 1),
                        };
                        let mode = match mode {
                            "abort" => FailMode::Abort,
                            _ => FailMode::Error,
                        };
                        map.insert(
                            site.to_string(),
                            Armed {
                                mode,
                                after,
                                hits: 0,
                            },
                        );
                    }
                }
            }
            Mutex::new(map)
        })
    }

    /// Arms `site` to trigger `mode` on its next hit.
    pub fn arm(site: &str, mode: FailMode) {
        arm_after(site, mode, 1);
    }

    /// Arms `site` to trigger `mode` on its `after`-th hit (1-based).
    pub fn arm_after(site: &str, mode: FailMode, after: u64) {
        registry().lock().unwrap().insert(
            site.to_string(),
            Armed {
                mode,
                after,
                hits: 0,
            },
        );
    }

    /// Disarms every site and resets hit counters.
    pub fn disarm_all() {
        registry().lock().unwrap().clear();
    }

    /// Number of times `site` has been hit since it was armed.
    pub fn hits(site: &str) -> u64 {
        registry().lock().unwrap().get(site).map_or(0, |a| a.hits)
    }

    /// Checks whether `site` should fire. Called from the instrumented
    /// write path; unarmed sites only pay a map lookup.
    pub fn fail_point(site: &str) -> Result<(), CkptError> {
        let mode = {
            let mut reg = registry().lock().unwrap();
            match reg.get_mut(site) {
                Some(armed) => {
                    armed.hits += 1;
                    if armed.hits == armed.after {
                        Some(armed.mode)
                    } else {
                        None
                    }
                }
                None => None,
            }
        };
        match mode {
            Some(FailMode::Error) => Err(CkptError::FailPoint {
                site: site.to_string(),
            }),
            Some(FailMode::Abort) => {
                // Simulate SIGKILL: no destructors, no flushing.
                std::process::abort();
            }
            None => Ok(()),
        }
    }
}

/// No-op when the `failpoints` feature is off — compiles to nothing.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn fail_point(_site: &str) -> Result<(), crate::error::CkptError> {
    Ok(())
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn armed_site_errors_on_nth_hit_then_stays_quiet() {
        disarm_all();
        arm_after("test.site", FailMode::Error, 2);
        assert!(fail_point("test.site").is_ok());
        assert!(matches!(
            fail_point("test.site"),
            Err(crate::CkptError::FailPoint { .. })
        ));
        // Only fires exactly once.
        assert!(fail_point("test.site").is_ok());
        assert_eq!(hits("test.site"), 3);
        disarm_all();
    }

    #[test]
    fn unarmed_sites_never_fire() {
        assert!(fail_point("nobody.armed.this").is_ok());
    }
}
