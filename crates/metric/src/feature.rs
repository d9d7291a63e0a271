//! Node features: the model-coefficient vectors that clustering operates on.

use std::sync::Arc;

/// Backing storage for a [`Feature`]. Dimension 1 is always `Scalar`, and
/// `Many` never holds exactly one component, so the derived equality
/// compares content, not storage.
#[derive(Debug, Clone, PartialEq)]
enum Repr {
    /// The one component of a 1-dimensional feature (Death Valley
    /// elevation, every benchmark field).
    Scalar(f64),
    /// Every other dimension (Tao's AR coefficients, synthetic high-dim
    /// tests), shared between clones and copied on write.
    Many(Arc<[f64]>),
}

/// A feature vector at a sensor node — typically the coefficients of its AR
/// model (§2.2): one elevation on the Death Valley terrain, at most four AR
/// coefficients on Tao (§8.1). Cloneable and comparable.
///
/// A feature is 16 bytes. A scalar is stored in place; any other
/// dimension lives in one shared, reference-counted block. So [`Clone`]
/// never allocates at any dimension (a copy, or a reference-count
/// increment), which keeps the per-message clone on the expand/descent
/// broadcast hot paths off the allocator, and
/// [`Feature::components_mut`] copies a shared block before writing to it.
#[derive(Debug, Clone, PartialEq)]
pub struct Feature {
    repr: Repr,
}

impl Feature {
    /// Creates a feature from its components.
    pub fn new(components: Vec<f64>) -> Self {
        if components.len() == 1 {
            return Feature::scalar(components[0]);
        }
        Feature {
            repr: Repr::Many(components.into()),
        }
    }

    /// Creates a 1-dimensional feature (e.g. Death Valley elevation).
    pub fn scalar(value: f64) -> Self {
        Feature {
            repr: Repr::Scalar(value),
        }
    }

    /// Dimension (number of model coefficients).
    pub fn dim(&self) -> usize {
        self.components().len()
    }

    /// Borrow the components.
    pub fn components(&self) -> &[f64] {
        match &self.repr {
            Repr::Scalar(value) => std::slice::from_ref(value),
            Repr::Many(values) => values,
        }
    }

    /// Mutably borrow the components (used by online model updates). A
    /// block shared with a clone is copied first, so the clone keeps its
    /// values.
    pub fn components_mut(&mut self) -> &mut [f64] {
        match &mut self.repr {
            Repr::Scalar(value) => std::slice::from_mut(value),
            Repr::Many(values) => Arc::make_mut(values),
        }
    }

    /// Number of scalars a message carrying this feature must transmit.
    /// The paper's cost model charges one message per coefficient (§8.2).
    pub fn scalar_cost(&self) -> u64 {
        self.dim() as u64
    }
}

impl From<Vec<f64>> for Feature {
    fn from(components: Vec<f64>) -> Self {
        Feature::new(components)
    }
}

impl std::fmt::Display for Feature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.4}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_constructor() {
        let f = Feature::scalar(3.5);
        assert_eq!(f.dim(), 1);
        assert_eq!(f.components(), &[3.5]);
    }

    #[test]
    fn from_vec() {
        let f: Feature = vec![1.0, 2.0].into();
        assert_eq!(f.dim(), 2);
    }

    #[test]
    fn scalar_cost_counts_coefficients() {
        assert_eq!(Feature::new(vec![0.1, 0.2, 0.3, 0.4]).scalar_cost(), 4);
        assert_eq!(Feature::scalar(1.0).scalar_cost(), 1);
    }

    #[test]
    fn display_formats() {
        let f = Feature::new(vec![0.5, 0.25]);
        assert_eq!(f.to_string(), "(0.5000, 0.2500)");
    }

    #[test]
    fn mutate_components() {
        let mut f = Feature::scalar(1.0);
        f.components_mut()[0] = 2.0;
        assert_eq!(f.components(), &[2.0]);
    }

    /// Scalar and shared representations must behave identically across
    /// the dimension-1 boundary — equality compares components, not
    /// storage — and writing through a clone must never reach the
    /// original (copy-on-write).
    #[test]
    fn inline_and_heap_agree_across_boundary() {
        for dim in 0..=8usize {
            let v: Vec<f64> = (0..dim).map(|i| i as f64 * 0.5).collect();
            let f = Feature::new(v.clone());
            assert_eq!(f.dim(), dim);
            assert_eq!(f.components(), v.as_slice());
            assert_eq!(f.scalar_cost(), dim as u64);
            let mut g = f.clone();
            assert_eq!(f, g);
            for c in g.components_mut() {
                *c += 1.0;
            }
            let shifted: Vec<f64> = v.iter().map(|c| c + 1.0).collect();
            assert_eq!(g.components(), shifted.as_slice(), "dim {dim}");
            assert_eq!(f.components(), v.as_slice(), "dim {dim}: original");
            assert_eq!(f == g, dim == 0, "dim {dim}");
        }
        // Same content, different construction path.
        assert_eq!(Feature::scalar(2.0), Feature::new(vec![2.0]));
    }

    #[test]
    fn feature_is_sixteen_bytes() {
        let size = std::mem::size_of::<Feature>();
        assert_eq!(
            size, 16,
            "Feature is {size} bytes, not the 16 of DESIGN.md §11.4"
        );
    }
}
