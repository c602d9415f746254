//! Single-qubit Pauli letters and phase bookkeeping conventions.
//!
//! Throughout this crate a Pauli-string generator is stored as
//! `i^r · Π_q X_q^{x_q} Z_q^{z_q}` with the X factor written *before* the Z
//! factor on each qubit and `r ∈ Z₄`. In this convention `(x, z) = (1, 1)`
//! with `r = 1` is the Hermitian `Y` (because `XZ = −iY`), and a generator is
//! Hermitian exactly when `r ≡ |{q : x_q = z_q = 1}| (mod 2)`.

/// A single-qubit Pauli letter (ignoring phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pauli {
    /// Identity.
    #[default]
    I,
    /// Pauli X.
    X,
    /// Pauli Y.
    Y,
    /// Pauli Z.
    Z,
}

impl Pauli {
    /// The `(x, z)` bit pair of this letter in the symplectic representation.
    pub fn bits(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Reconstructs a letter from its `(x, z)` bit pair.
    pub fn from_bits(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Whether this letter anticommutes with `other`.
    pub fn anticommutes_with(self, other: Pauli) -> bool {
        let (x1, z1) = self.bits();
        let (x2, z2) = other.bits();
        (x1 & z2) ^ (z1 & x2)
    }
}

impl std::fmt::Display for Pauli {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_roundtrip() {
        for p in [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z] {
            let (x, z) = p.bits();
            assert_eq!(Pauli::from_bits(x, z), p);
        }
    }

    #[test]
    fn anticommutation_table() {
        use Pauli::*;
        // Distinct non-identity letters anticommute; everything commutes
        // with itself and with I.
        for p in [X, Y, Z] {
            assert!(!p.anticommutes_with(p));
            assert!(!p.anticommutes_with(I));
            assert!(!I.anticommutes_with(p));
        }
        assert!(X.anticommutes_with(Y));
        assert!(Y.anticommutes_with(Z));
        assert!(Z.anticommutes_with(X));
    }

    #[test]
    fn display_letters() {
        assert_eq!(Pauli::Y.to_string(), "Y");
        assert_eq!(Pauli::I.to_string(), "I");
    }
}
