//! ELink tuning parameters.

/// Parameters of the ELink algorithm (§3–§5).
#[derive(Debug, Clone, Copy)]
pub struct ElinkConfig {
    /// The clustering dissimilarity threshold δ: every pair of nodes inside
    /// a cluster is within feature distance δ. Expansion admits nodes within
    /// δ/2 of the cluster root's feature.
    pub delta: f64,
    /// The switch-gain threshold φ: a clustered node switches to a new
    /// cluster only if its distance to the new root improves on its current
    /// root distance by at least φ. The experiments use φ = 0.1 δ (§8.4).
    pub phi: f64,
    /// Maximum number of cluster switches per node (the constant `c`,
    /// "usually small, around 3–5"; experiments use 4).
    pub max_switches: u32,
    /// Path stretch factor γ used in the implicit schedule
    /// `κ = (1+γ)√(N/2)` ("usually small, around 0.2–0.4", §4). The default
    /// is deliberately at the conservative end so that level timers never
    /// under-allot expansion time on non-grid topologies.
    pub gamma: f64,
}

impl ElinkConfig {
    /// The paper's experimental defaults for a given δ: φ = 0.1 δ, c = 4.
    pub fn for_delta(delta: f64) -> ElinkConfig {
        assert!(delta > 0.0, "delta must be positive");
        ElinkConfig {
            delta,
            phi: 0.1 * delta,
            max_switches: 4,
            gamma: 0.4,
        }
    }

    /// The admission radius δ/2 used during expansion.
    pub fn admission_radius(&self) -> f64 {
        self.delta / 2.0
    }

    /// The implicit-schedule constant κ = (1+γ)√(N/2) (§4).
    pub fn kappa(&self, n: usize) -> f64 {
        (1.0 + self.gamma) * (n as f64 / 2.0).sqrt()
    }

    /// Expansion interval `t_l = κ(1 + 1/2 + … + 1/2^l)` for a sentinel at
    /// level `l` (§4).
    pub fn t_level(&self, n: usize, level: usize) -> f64 {
        let kappa = self.kappa(n);
        let geom: f64 = (0..=level).map(|i| 0.5_f64.powi(i as i32)).sum();
        kappa * geom
    }

    /// Start time `T = Σ_{j=0}^{l-1} t_j` of sentinel set `S_l` in the
    /// implicit schedule (§4); 0 for the root sentinel.
    ///
    /// O(level): the geometric series of each `t_j` extends the previous
    /// one by a single term, so both sums run once, adding the same terms
    /// in the same order as [`ElinkConfig::t_level`] and giving its exact
    /// bits. The outer sum stays an `Iterator::sum` so that even level 0's
    /// empty sum keeps its sign (−0.0).
    pub fn schedule_start(&self, n: usize, level: usize) -> f64 {
        let kappa = self.kappa(n);
        let (mut geom, mut term) = (0.0, 1.0);
        (0..level)
            .map(|_| {
                geom += term;
                term *= 0.5;
                kappa * geom
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ElinkConfig::for_delta(6.0);
        assert_eq!(c.delta, 6.0);
        assert!((c.phi - 0.6).abs() < 1e-12);
        assert_eq!(c.max_switches, 4);
        assert_eq!(c.admission_radius(), 3.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_delta_panics() {
        let _ = ElinkConfig::for_delta(0.0);
    }

    #[test]
    fn kappa_formula() {
        let c = ElinkConfig {
            gamma: 0.4,
            ..ElinkConfig::for_delta(1.0)
        };
        // κ = 1.4 * sqrt(50) for N = 100.
        assert!((c.kappa(100) - 1.4 * 50.0_f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn t_levels_increase_and_bounded_by_2kappa() {
        let c = ElinkConfig::for_delta(1.0);
        let n = 256;
        let kappa = c.kappa(n);
        let mut prev = 0.0;
        for l in 0..10 {
            let t = c.t_level(n, l);
            assert!(t > prev, "t_l must increase with l");
            assert!(t < 2.0 * kappa, "t_l < 2κ (geometric sum bound)");
            prev = t;
        }
    }

    #[test]
    fn schedule_starts_accumulate() {
        let c = ElinkConfig::for_delta(1.0);
        let n = 64;
        assert_eq!(c.schedule_start(n, 0), 0.0);
        let s1 = c.schedule_start(n, 1);
        let s2 = c.schedule_start(n, 2);
        assert!((s1 - c.t_level(n, 0)).abs() < 1e-9);
        assert!((s2 - (c.t_level(n, 0) + c.t_level(n, 1))).abs() < 1e-9);
    }

    /// The quadratic formula `schedule_start` replaced: one `t_level` per
    /// earlier level, each re-summing its own `powi` series.
    fn schedule_start_oracle(c: &ElinkConfig, n: usize, level: usize) -> f64 {
        (0..level).map(|j| c.t_level(n, j)).sum()
    }

    #[test]
    fn schedule_start_is_bit_identical_to_the_per_level_sum() {
        for gamma in [0.0, 0.2, 0.4] {
            let c = ElinkConfig {
                gamma,
                ..ElinkConfig::for_delta(1.0)
            };
            for n in (1..=65_536).step_by(257).chain([2, 1_024, 65_535, 65_536]) {
                for level in 0..=44 {
                    assert_eq!(
                        c.schedule_start(n, level).to_bits(),
                        schedule_start_oracle(&c, n, level).to_bits(),
                        "gamma {gamma}, n {n}, level {level}"
                    );
                }
            }
        }
    }
}
