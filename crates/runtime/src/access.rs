//! Task data-access annotations.
//!
//! These are the runtime-level equivalent of the `in(...)`, `out(...)` and
//! `inout(...)` clauses of OmpSs / OpenMP 4.0 task pragmas. Every submitted
//! task carries a list of [`Access`]es, each naming a whole region; the
//! dependence tracker derives the task dependence graph from the regions
//! they share (at least one side writing), and the ATM engine uses
//! the `In`/`InOut` accesses as the bytes to hash and the `Out`/`InOut`
//! accesses as the outputs to memoize.
//!
//! Accesses are declared through typed [`Region<T>`] handles
//! ([`Access::read`], [`Access::write`], [`Access::read_write`]), so the
//! element type is derived from the handle instead of being restated by the
//! caller — the class of hash/copy-width mismatches the untyped constructors
//! allowed is ruled out by construction, and the submission validator
//! double-checks the derived type against the store.

use crate::region::{Elem, ElemType, Region, RegionId};

/// Direction of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// The task only reads the data (`in` clause).
    In,
    /// The task only produces the data (`out` clause).
    Out,
    /// The task reads and updates the data (`inout` clause).
    InOut,
}

impl AccessMode {
    /// True for `In` and `InOut`: the bytes participate in the hash key.
    pub fn is_read(self) -> bool {
        matches!(self, AccessMode::In | AccessMode::InOut)
    }

    /// True for `Out` and `InOut`: the bytes are produced by the task and
    /// stored in the Task History Table when it is memoizable.
    pub fn is_write(self) -> bool {
        matches!(self, AccessMode::Out | AccessMode::InOut)
    }
}

impl std::fmt::Display for AccessMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            AccessMode::In => "in",
            AccessMode::Out => "out",
            AccessMode::InOut => "inout",
        };
        f.write_str(name)
    }
}

/// One data access of a task: a whole region, with a direction and
/// the element type of the accessed data (the paper extends the runtime API
/// with element types to enable type-aware input selection, §III-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Access {
    /// The region being accessed.
    pub region: RegionId,
    /// Access direction.
    pub mode: AccessMode,
    /// Element type of the accessed data, derived from the [`Region<T>`]
    /// handle the access was declared through.
    pub elem: ElemType,
}

impl Access {
    /// Whole-region read access through a typed handle (`in` clause).
    pub fn read<T: Elem>(region: &Region<T>) -> Self {
        Access {
            region: region.id(),
            mode: AccessMode::In,
            elem: T::ELEM,
        }
    }

    /// Whole-region write access through a typed handle (`out` clause).
    pub fn write<T: Elem>(region: &Region<T>) -> Self {
        Access {
            region: region.id(),
            mode: AccessMode::Out,
            elem: T::ELEM,
        }
    }

    /// Whole-region read-write access through a typed handle (`inout` clause).
    pub fn read_write<T: Elem>(region: &Region<T>) -> Self {
        Access {
            region: region.id(),
            mode: AccessMode::InOut,
            elem: T::ELEM,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::DataStore;

    #[test]
    fn mode_classification() {
        assert!(AccessMode::In.is_read());
        assert!(!AccessMode::In.is_write());
        assert!(!AccessMode::Out.is_read());
        assert!(AccessMode::Out.is_write());
        assert!(AccessMode::InOut.is_read());
        assert!(AccessMode::InOut.is_write());
    }

    #[test]
    fn typed_constructors_derive_the_element_type() {
        let store = DataStore::new();
        let floats = store.register_zeros::<f64>("floats", 4).unwrap();
        let ints = store.register_zeros::<i32>("ints", 4).unwrap();
        assert_eq!(Access::read(&floats).elem, ElemType::F64);
        assert_eq!(Access::write(&floats).mode, AccessMode::Out);
        let rw = Access::read_write(&ints);
        assert_eq!(rw.elem, ElemType::I32);
        assert_eq!(rw.mode, AccessMode::InOut);
        assert_eq!(rw.region, ints.id());
    }
}
