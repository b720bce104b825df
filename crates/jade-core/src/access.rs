//! Access specifications: the data access information at the heart of Jade.
//!
//! A task's access specification is built by executing its *access
//! specification section* — in this Rust incarnation, the closure passed to
//! [`crate::runtime::JadeRuntime`] task construction, or the
//! [`crate::task::TaskBuilder`] `rd`/`wr` calls. Each statement declares how
//! the task will access one shared object; the union of executed statements
//! is the specification. Declaration **order matters**: the first declared
//! object is the task's *locality object* (paper Sections 3.2.1 and 3.4.3).

use crate::ids::ObjectId;

/// How a task accesses one shared object.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessMode {
    /// `rd(o)`: the task may read `o`.
    Read,
    /// `wr(o)`: the task may write `o`.
    Write,
    /// Both `rd(o)` and `wr(o)` were declared.
    ReadWrite,
}

impl AccessMode {
    #[inline]
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    #[inline]
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }

    /// Combine two declarations on the same object.
    pub fn merge(self, other: AccessMode) -> AccessMode {
        if self == other {
            self
        } else {
            AccessMode::ReadWrite
        }
    }

    /// Two accesses to the same object conflict unless both are pure reads.
    #[inline]
    pub fn conflicts(self, other: AccessMode) -> bool {
        self.writes() || other.writes()
    }
}

/// One declaration: (object, mode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessDecl {
    pub object: ObjectId,
    pub mode: AccessMode,
}

/// An ordered access specification.
///
/// Kept in declaration order; duplicate declarations on the same object are
/// merged in place (the first declaration's position is preserved, so the
/// locality object is stable).
///
/// Specifications of up to three objects (`INLINE_DECLS`) live inside the
/// value; the declaration after that moves them all to a `Vec` (DESIGN.md
/// §3). Which of the two holds the declarations is not observable: every method
/// answers from [`decls`](Self::decls), equality included.
#[derive(Clone)]
pub struct AccessSpec {
    decls: Decls,
}

/// Declarations a specification holds without a heap block. Three covers
/// the parallel tasks of Water (3) and Panel Cholesky (1-3), PageRank's
/// scatter tasks (2) and the fine-grain benchmark shapes (1-3); String's
/// ray tasks declare 4, Ocean's and Halo's stencil tasks 5-10, PageRank's
/// gathers up to 43, and those spill. A fourth slot would make every
/// specification 40 bytes to keep 54 String tasks inline; three fit the 32
/// bytes a spilled specification needs anyway (`layout_is_four_words`).
const INLINE_DECLS: usize = 3;

#[derive(Clone)]
enum Decls {
    /// The first `.0` entries of `.1` are the declarations; the rest is
    /// filler that no method reads.
    Inline(u8, [AccessDecl; INLINE_DECLS]),
    /// `max` is the largest object declared: a declaration above it cannot
    /// merge, so it appends without scanning. PageRank's gathers declare one
    /// object per sender partition in ascending id order, hundreds of them
    /// at 32 processors and more. The id packs beside the tag, so the
    /// specification stays four words.
    Spilled {
        decls: Vec<AccessDecl>,
        max: ObjectId,
    },
}

const FILLER: AccessDecl = AccessDecl {
    object: ObjectId(0),
    mode: AccessMode::Read,
};

impl AccessSpec {
    pub fn new() -> AccessSpec {
        AccessSpec {
            decls: Decls::Inline(0, [FILLER; INLINE_DECLS]),
        }
    }

    /// Declare a read of `object`.
    pub fn rd(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.declare(object.into(), AccessMode::Read)
    }

    /// Declare a write of `object`.
    pub fn wr(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.declare(object.into(), AccessMode::Write)
    }

    /// Declare a combined read-write access of `object`.
    pub fn rd_wr(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.declare(object.into(), AccessMode::ReadWrite)
    }

    fn declare(&mut self, object: ObjectId, mode: AccessMode) -> &mut Self {
        let decl = AccessDecl { object, mode };
        if let Decls::Spilled { decls, max } = &mut self.decls {
            if object > *max {
                *max = object;
                decls.push(decl);
                return self;
            }
        }
        if let Some(d) = self.decls_mut().iter_mut().find(|d| d.object == object) {
            d.mode = d.mode.merge(mode);
            return self;
        }
        match &mut self.decls {
            Decls::Inline(len, slots) if usize::from(*len) < INLINE_DECLS => {
                slots[usize::from(*len)] = decl;
                *len += 1;
            }
            Decls::Inline(_, slots) => {
                // Room for the declaration that spills it and no more: from
                // here the `Vec` doubles through 8, 16, ... — the blocks a
                // specification of this length has always had. (Starting at
                // 8 saves Ocean's stencil tasks one `realloc` and cost the
                // simulator workloads 1.1 MB of peak RSS.)
                let mut spilled = Vec::with_capacity(INLINE_DECLS + 1);
                spilled.extend_from_slice(slots);
                spilled.push(decl);
                self.decls = Decls::Spilled {
                    max: slots.iter().map(|d| d.object).fold(object, ObjectId::max),
                    decls: spilled,
                };
            }
            // Below `max` (the fast path took the rest) and not declared.
            Decls::Spilled { decls, .. } => decls.push(decl),
        }
        self
    }

    fn decls_mut(&mut self) -> &mut [AccessDecl] {
        match &mut self.decls {
            Decls::Inline(len, slots) => &mut slots[..usize::from(*len)],
            Decls::Spilled { decls, .. } => decls,
        }
    }

    /// All declarations, in declaration order.
    #[inline]
    pub fn decls(&self) -> &[AccessDecl] {
        match &self.decls {
            Decls::Inline(len, slots) => &slots[..usize::from(*len)],
            Decls::Spilled { decls, .. } => decls,
        }
    }

    pub fn len(&self) -> usize {
        self.decls().len()
    }

    pub fn is_empty(&self) -> bool {
        self.decls().is_empty()
    }

    /// The declared mode for `object`, if any.
    pub fn mode_of(&self, object: ObjectId) -> Option<AccessMode> {
        self.decls()
            .iter()
            .find(|d| d.object == object)
            .map(|d| d.mode)
    }

    /// The task's locality object: the **first** declared object. The
    /// schedulers on both machines attempt to run the task on the processor
    /// that owns this object.
    pub fn locality_object(&self) -> Option<ObjectId> {
        self.decls().first().map(|d| d.object)
    }

    /// Objects the task reads (including read-write).
    pub fn read_objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.decls()
            .iter()
            .filter(|d| d.mode.reads())
            .map(|d| d.object)
    }

    /// Objects the task writes (including read-write).
    pub fn written_objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.decls()
            .iter()
            .filter(|d| d.mode.writes())
            .map(|d| d.object)
    }

    /// True if this spec has a dynamic data dependence with `other`: some
    /// object is accessed by both, and at least one side writes it.
    pub fn conflicts_with(&self, other: &AccessSpec) -> bool {
        self.decls()
            .iter()
            .any(|a| other.mode_of(a.object).is_some_and(|m| a.mode.conflicts(m)))
    }
}

impl Default for AccessSpec {
    fn default() -> AccessSpec {
        AccessSpec::new()
    }
}

/// Over [`decls`](AccessSpec::decls): the inline filler and whether the
/// specification has spilled are storage, not part of its value.
impl PartialEq for AccessSpec {
    fn eq(&self, other: &AccessSpec) -> bool {
        self.decls() == other.decls()
    }
}

impl Eq for AccessSpec {}

impl std::fmt::Debug for AccessSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessSpec")
            .field("decls", &self.decls())
            .finish()
    }
}

impl FromIterator<AccessDecl> for AccessSpec {
    fn from_iter<I: IntoIterator<Item = AccessDecl>>(iter: I) -> AccessSpec {
        let mut s = AccessSpec::new();
        for d in iter {
            s.declare(d.object, d.mode);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(n: u32) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn order_preserved_and_locality_first() {
        let mut s = AccessSpec::new();
        s.rd(o(5)).wr(o(2)).rd(o(9));
        assert_eq!(s.locality_object(), Some(o(5)));
        assert_eq!(s.len(), 3);
        let objs: Vec<_> = s.decls().iter().map(|d| d.object).collect();
        assert_eq!(objs, vec![o(5), o(2), o(9)]);
    }

    #[test]
    fn duplicate_declarations_merge() {
        let mut s = AccessSpec::new();
        s.rd(o(1)).wr(o(1));
        assert_eq!(s.len(), 1);
        assert_eq!(s.mode_of(o(1)), Some(AccessMode::ReadWrite));
        // Position of the first declaration is kept.
        let mut s2 = AccessSpec::new();
        s2.rd(o(3)).rd(o(1)).wr(o(3));
        assert_eq!(s2.locality_object(), Some(o(3)));
    }

    #[test]
    fn read_write_iterators() {
        let mut s = AccessSpec::new();
        s.rd(o(1)).wr(o(2)).rd_wr(o(3));
        assert_eq!(s.read_objects().collect::<Vec<_>>(), vec![o(1), o(3)]);
        assert_eq!(s.written_objects().collect::<Vec<_>>(), vec![o(2), o(3)]);
    }

    #[test]
    fn conflict_rules() {
        assert!(!AccessMode::Read.conflicts(AccessMode::Read));
        assert!(AccessMode::Read.conflicts(AccessMode::Write));
        assert!(AccessMode::Write.conflicts(AccessMode::Write));

        let mut readers = AccessSpec::new();
        readers.rd(o(1)).rd(o(2));
        let mut readers2 = AccessSpec::new();
        readers2.rd(o(2));
        assert!(!readers.conflicts_with(&readers2));

        let mut writer = AccessSpec::new();
        writer.wr(o(2));
        assert!(readers.conflicts_with(&writer));
        assert!(writer.conflicts_with(&readers));

        let mut disjoint = AccessSpec::new();
        disjoint.wr(o(7));
        assert!(!readers.conflicts_with(&disjoint));
    }

    #[test]
    fn empty_spec() {
        let s = AccessSpec::new();
        assert!(s.is_empty());
        assert_eq!(s.locality_object(), None);
        assert!(!s.conflicts_with(&s.clone()));
    }

    #[test]
    fn from_iter_merges() {
        let s: AccessSpec = [
            AccessDecl {
                object: o(1),
                mode: AccessMode::Read,
            },
            AccessDecl {
                object: o(1),
                mode: AccessMode::Write,
            },
            AccessDecl {
                object: o(2),
                mode: AccessMode::Read,
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.mode_of(o(1)), Some(AccessMode::ReadWrite));
    }

    #[test]
    fn layout_is_four_words() {
        // A `Trace` holds one specification per task and a `ThreadRuntime`
        // slot one per submitted task: the inline array may not cost more
        // than the spilled `Vec` (three words) plus a tag.
        assert!(std::mem::size_of::<AccessSpec>() <= 32);
        assert_eq!(std::mem::size_of::<AccessDecl>(), 8);
    }

    #[test]
    fn fourth_object_spills_and_keeps_order() {
        let mut s = AccessSpec::new();
        s.rd(o(4)).wr(o(3)).rd(o(2));
        assert!(matches!(s.decls, Decls::Inline(3, _)));
        // Merging into a full inline specification does not spill it.
        s.wr(o(2));
        assert!(matches!(s.decls, Decls::Inline(3, _)));
        s.rd_wr(o(1));
        assert!(matches!(s.decls, Decls::Spilled { .. }));
        let objs: Vec<_> = s.decls().iter().map(|d| (d.object.0, d.mode)).collect();
        assert_eq!(
            objs,
            vec![
                (4, AccessMode::Read),
                (3, AccessMode::Write),
                (2, AccessMode::ReadWrite),
                (1, AccessMode::ReadWrite),
            ]
        );
        assert_eq!(s.locality_object(), Some(o(4)));
    }

    use proptest::prelude::*;

    /// The reference: a plain `Vec` with the merge rule written out.
    fn model_declare(model: &mut Vec<AccessDecl>, object: ObjectId, mode: AccessMode) {
        match model.iter_mut().find(|d| d.object == object) {
            Some(d) => d.mode = d.mode.merge(mode),
            None => model.push(AccessDecl { object, mode }),
        }
    }

    /// Build a specification and its model from `(object, statement)` pairs;
    /// statement 0 is `rd`, 1 is `wr`, 2 is `rd_wr`.
    fn build(stmts: &[(u32, u8)]) -> (AccessSpec, Vec<AccessDecl>) {
        let mut spec = AccessSpec::new();
        let mut model = Vec::new();
        for &(obj, stmt) in stmts {
            let mode = match stmt {
                0 => {
                    spec.rd(o(obj));
                    AccessMode::Read
                }
                1 => {
                    spec.wr(o(obj));
                    AccessMode::Write
                }
                _ => {
                    spec.rd_wr(o(obj));
                    AccessMode::ReadWrite
                }
            };
            model_declare(&mut model, o(obj), mode);
        }
        (spec, model)
    }

    /// Ids the statements draw from, below `OBJECTS`.
    const OBJECTS: u32 = 48;

    type Draw = (Vec<(u32, u8)>, Vec<(u32, u8)>, Vec<(u32, u8)>);

    fn statements() -> impl Strategy<Value = Draw> {
        // 0-12 statements over 8 objects: duplicates are common, and the
        // distinct count lands on both sides of the spill. Then an
        // ascending run of 0-12 ids above them, drawn as gaps (the
        // largest-id fast path once spilled), and 0-6 statements over the
        // first 20 ids, which mostly repeat an id below the largest.
        (
            prop::collection::vec((0..8u32, 0..3u8), 0..13),
            prop::collection::vec((1..4u32, 0..3u8), 0..13),
            prop::collection::vec((0..20u32, 0..3u8), 0..7),
        )
    }

    /// The statements of a [`statements`] draw, in order.
    fn assemble((mut stmts, run, repeats): Draw) -> Vec<(u32, u8)> {
        let mut id = 7;
        for (gap, stmt) in run {
            id += gap;
            stmts.push((id, stmt));
        }
        stmts.extend(repeats);
        stmts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn matches_a_vec_of_declarations(a in statements(), b in statements()) {
            let (spec, model) = build(&assemble(a));
            prop_assert_eq!(spec.decls(), &model[..]);
            prop_assert_eq!(spec.len(), model.len());
            prop_assert_eq!(spec.is_empty(), model.is_empty());
            prop_assert_eq!(matches!(spec.decls, Decls::Spilled { .. }), model.len() > INLINE_DECLS);
            prop_assert_eq!(spec.locality_object(), model.first().map(|d| d.object));
            for obj in 0..OBJECTS {
                let want = model.iter().find(|d| d.object == o(obj)).map(|d| d.mode);
                prop_assert_eq!(spec.mode_of(o(obj)), want);
            }
            let reads: Vec<_> = model.iter().filter(|d| d.mode.reads()).map(|d| d.object).collect();
            let writes: Vec<_> = model.iter().filter(|d| d.mode.writes()).map(|d| d.object).collect();
            prop_assert_eq!(spec.read_objects().collect::<Vec<_>>(), reads);
            prop_assert_eq!(spec.written_objects().collect::<Vec<_>>(), writes);

            let (other, other_model) = build(&assemble(b));
            let conflict = model.iter().any(|x| {
                other_model.iter().any(|y| x.object == y.object && x.mode.conflicts(y.mode))
            });
            prop_assert_eq!(spec.conflicts_with(&other), conflict);
            prop_assert_eq!(other.conflicts_with(&spec), conflict);
            prop_assert_eq!(spec == other, model == other_model);

            let cloned = spec.clone();
            prop_assert_eq!(&cloned, &spec);
            prop_assert_eq!(cloned.decls(), &model[..]);
            // Already merged, so collecting the declarations rebuilds it.
            let collected: AccessSpec = model.iter().copied().collect();
            prop_assert_eq!(&collected, &spec);
            // Storage is not value: the same declarations held in a `Vec`
            // compare equal (and print alike) on either side of the spill.
            let max = model.iter().map(|d| d.object).max().unwrap_or(o(0));
            let spilled = AccessSpec { decls: Decls::Spilled { decls: model.clone(), max } };
            prop_assert_eq!(&spilled, &spec);
            prop_assert_eq!(format!("{spilled:?}"), format!("{spec:?}"));
        }
    }
}
