//! Machine-checkable lower-bound certificates.
//!
//! A [`ChainCertificate`] packages the complete Lemma 13 argument for a
//! concrete `(Δ, k)`: the problem sequence, the per-transition
//! justification (one Corollary 10 step followed by a Lemma 11
//! relaxation), and the Lemma 12 terminal condition — each recorded as a
//! separately re-checkable fact. [`ChainCertificate::verify`] re-derives
//! every fact from scratch; for small Δ it additionally re-verifies the
//! underlying round elimination Lemmas 6 and 8 with the engine.

use crate::family::{self, PiParams};
use crate::{lemma8, sequence};
use relim_core::error::Result;
use relim_core::zeroround;
use relim_core::Engine;

/// One chain member with its transition evidence.
#[derive(Debug, Clone)]
pub struct CertStep {
    /// Position in the chain.
    pub index: usize,
    /// The member `Π_Δ(a_i, x_i)`.
    pub params: PiParams,
    /// Lemma 12 applies: the member is not 0-round solvable.
    pub not_zero_round_solvable: bool,
    /// For non-terminal steps: the parameters after one Corollary 10 step.
    pub corollary10_output: Option<PiParams>,
    /// For non-terminal steps: the Lemma 11 relaxation from the Corollary
    /// 10 output down to the next member is legal (`a` shrinks, `x` grows).
    pub relaxation_legal: Option<bool>,
}

/// A full lower-bound certificate for `(Δ, k)`.
#[derive(Debug, Clone)]
pub struct ChainCertificate {
    /// Degree.
    pub delta: u32,
    /// Outdegree budget (the `k` of k-ODS; `x₀ = k`).
    pub k: u32,
    /// Chain members with evidence.
    pub steps: Vec<CertStep>,
    /// Whether Lemmas 6 and 8 were additionally engine-verified per step
    /// (only attempted for `Δ ≤ 5`).
    pub engine_verified: bool,
}

impl ChainCertificate {
    /// Builds the certificate from the paper-schedule chain.
    ///
    /// # Errors
    ///
    /// Propagates problem-construction errors.
    pub fn build(delta: u32, k: u32) -> Result<Self> {
        let chain = sequence::paper_chain(delta, k);
        let mut steps = Vec::with_capacity(chain.steps.len());
        for (index, params) in chain.steps.iter().enumerate() {
            let problem = family::pi(params)?;
            let not_zero = !zeroround::solvable_deterministically(&problem);
            let (c10, legal) = if index + 1 < chain.steps.len() {
                let out = params.corollary10_step();
                let next = chain.steps[index + 1];
                (Some(out), Some(out.a >= next.a && out.x <= next.x))
            } else {
                (None, None)
            };
            steps.push(CertStep {
                index,
                params: *params,
                not_zero_round_solvable: not_zero,
                corollary10_output: c10,
                relaxation_legal: legal,
            });
        }
        Ok(ChainCertificate { delta, k, steps, engine_verified: false })
    }

    /// The chain length `t` (number of transitions).
    pub fn length(&self) -> u32 {
        self.steps.len().saturating_sub(1) as u32
    }

    /// Re-checks every recorded fact; with an [`Engine`] session (and
    /// `Δ ≤ 5`), also re-verifies Lemmas 6 and 8 at every transition with
    /// the round elimination engine — all transitions share the session's
    /// cache and workers.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (e.g. parameters outside lemma hypotheses).
    pub fn verify(&mut self, engine: Option<&Engine>) -> Result<bool> {
        let mut ok = true;
        for (i, step) in self.steps.iter().enumerate() {
            // Lemma 12 side conditions + direct engine check.
            let p = family::pi(&step.params)?;
            ok &= step.params.a >= 1 && step.params.x < self.delta;
            ok &= !zeroround::solvable_deterministically(&p);
            ok &= step.not_zero_round_solvable;
            if i + 1 < self.steps.len() {
                // Corollary 10 applicability at this member.
                ok &= step.params.corollary10_applicable();
                ok &= step.relaxation_legal == Some(true);
            }
        }
        if let Some(engine) = engine {
            if self.delta <= 5 {
                for step in &self.steps {
                    if step.corollary10_output.is_some() && step.params.lemma6_applicable() {
                        // The Lemma 8 report checks Lemma 6 on its own R(Π).
                        let mach = lemma8::Lemma8Machinery::compute(&step.params, engine)?;
                        ok &= mach.verify().matches_paper();
                    }
                }
                self.engine_verified = true;
            }
        }
        Ok(ok)
    }

    /// Human-readable rendering of the certificate.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Lower-bound certificate for Δ = {}, k = {} (t = {} transitions)\n",
            self.delta,
            self.k,
            self.length()
        );
        for step in &self.steps {
            out.push_str(&format!(
                "  Π_{} = Π_Δ({}, {})   not-0-round: {}",
                step.index, step.params.a, step.params.x, step.not_zero_round_solvable
            ));
            if let (Some(c10), Some(legal)) = (step.corollary10_output, step.relaxation_legal) {
                out.push_str(&format!("   —C10→ ({}, {})  —L11 legal: {}", c10.a, c10.x, legal));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "conclusion: Π_Δ({}, {}) requires > {} rounds in the deterministic PN model;\n",
            self.delta,
            self.k,
            self.length()
        ));
        out.push_str("via Lemma 5, so does the k-outdegree dominating set problem (±1 round).");
        if self.engine_verified {
            out.push_str("\n(engine-verified: Lemmas 6 and 8 recomputed at every transition)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificate_small_delta_engine_verified() {
        let mut cert = ChainCertificate::build(4, 0).unwrap();
        assert!(cert.verify(Some(&Engine::sequential())).unwrap(), "{}", cert.render());
        assert!(cert.engine_verified);
        assert!(cert.render().contains("Lower-bound certificate"));
    }

    #[test]
    fn certificate_large_delta_arithmetic_only() {
        let mut cert = ChainCertificate::build(1 << 18, 0).unwrap();
        assert_eq!(cert.length(), 5);
        assert!(cert.verify(None).unwrap());
        assert!(!cert.engine_verified);
    }

    #[test]
    fn certificate_with_k() {
        let mut cert = ChainCertificate::build(1 << 15, 3).unwrap();
        assert!(cert.verify(None).unwrap());
        assert!(cert.length() >= 2);
        // x starts at k.
        assert_eq!(cert.steps[0].params.x, 3);
    }

    #[test]
    fn tampered_certificate_fails() {
        let mut cert = ChainCertificate::build(4096, 0).unwrap();
        cert.steps[0].not_zero_round_solvable = false;
        assert!(!cert.verify(None).unwrap());
    }
}
