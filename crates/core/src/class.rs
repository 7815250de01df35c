use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// Identifier of a *class of demands* (the paper's `x`).
///
/// The paper stresses that cases must be grouped into classes within which
/// the conditional failure probabilities are homogeneous — e.g. "easy" vs
/// "difficult" mammograms in the §5 example, or finer classifications by
/// lesion type. A `ClassId` is a cheap-to-clone interned name.
///
/// # Example
///
/// ```
/// use hmdiv_core::ClassId;
///
/// let easy = ClassId::new("easy");
/// assert_eq!(easy.name(), "easy");
/// assert_eq!(easy, ClassId::from("easy"));
/// ```
// Derived `PartialOrd` expands to `partial_cmp`, which clippy.toml disallows
// for hand-written float comparisons; the derive itself is fine.
#[allow(clippy::disallowed_methods)]
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(Arc<str>);

impl ClassId {
    /// Creates a class identifier from a name.
    #[must_use]
    pub fn new(name: impl AsRef<str>) -> Self {
        ClassId(Arc::from(name.as_ref()))
    }

    /// The class name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ClassId {
    fn from(s: &str) -> Self {
        ClassId::new(s)
    }
}

impl From<String> for ClassId {
    fn from(s: String) -> Self {
        ClassId(Arc::from(s.as_str()))
    }
}

impl From<ClassId> for String {
    fn from(c: ClassId) -> String {
        c.0.as_ref().to_owned()
    }
}

impl AsRef<str> for ClassId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for ClassId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// An interned, sorted universe of demand classes.
///
/// Class names resolve **once** to dense `u32` indices; every compiled
/// evaluation structure ([`crate::compiled`]) stores its per-class data in
/// parallel vectors over these indices, so hot loops index slices instead of
/// walking `BTreeMap<ClassId, _>` nodes. Indices follow sorted name order —
/// the same order a `BTreeMap` iterates — which is what keeps compiled
/// evaluation bit-identical to the map-based reference (including RNG
/// consumption order in posterior sampling).
///
/// # Example
///
/// ```
/// use hmdiv_core::ClassUniverse;
///
/// let u = ClassUniverse::from_names(["difficult", "easy"]);
/// assert_eq!(u.len(), 2);
/// assert_eq!(u.index_of("difficult"), Some(0));
/// assert_eq!(u.index_of("easy"), Some(1));
/// assert_eq!(u.class(1).name(), "easy");
/// assert!(u.index_of("odd").is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassUniverse {
    /// Sorted, deduplicated class names; `names[i]` is the class at index
    /// `i as u32`.
    names: Vec<ClassId>,
}

impl ClassUniverse {
    /// Interns a collection of class names (sorted and deduplicated).
    #[must_use]
    pub fn from_names<I, C>(names: I) -> Self
    where
        I: IntoIterator<Item = C>,
        C: Into<ClassId>,
    {
        let mut names: Vec<ClassId> = names.into_iter().map(Into::into).collect();
        names.sort();
        names.dedup();
        ClassUniverse { names }
    }

    /// Number of classes in the universe.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the universe is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The dense index of a class name, or `None` if unknown.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<u32> {
        self.names
            .binary_search_by(|c| c.name().cmp(name))
            .ok()
            .map(|i| i as u32)
    }

    /// The dense index of a class name, as a typed error on miss.
    ///
    /// # Errors
    ///
    /// [`crate::ModelError::UnknownClass`] if the name is not interned.
    pub fn resolve(&self, name: &str) -> Result<u32, crate::ModelError> {
        self.index_of(name)
            .ok_or_else(|| crate::ModelError::UnknownClass {
                class: ClassId::new(name),
            })
    }

    /// The class at a dense index.
    ///
    /// # Panics
    ///
    /// If `index >= self.len()` — indices come from this universe's own
    /// `index_of`/`resolve`, so a panic indicates a cross-universe mixup.
    #[must_use]
    pub fn class(&self, index: u32) -> &ClassId {
        &self.names[index as usize]
    }

    /// Whether a class name is interned.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// Iterates the classes in index (sorted-name) order.
    pub fn iter(&self) -> impl Iterator<Item = &ClassId> {
        self.names.iter()
    }

    /// The classes as a slice in index order.
    #[must_use]
    pub fn classes(&self) -> &[ClassId] {
        &self.names
    }

    /// A content hash over the interned names, in index order (FNV-1a 64).
    ///
    /// Two universes hash equal iff they intern the same names in the same
    /// order — i.e. iff every dense index means the same class in both.
    /// The hash travels with exported models ([`UniverseManifest`]) so a
    /// deserialized model and a foreign profile can verify index-space
    /// compatibility instead of re-interning and hoping.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for name in &self.names {
            for b in name.name().as_bytes() {
                h = fnv1a(h, *b);
            }
            // Separator outside UTF-8 so ["ab","c"] != ["a","bc"].
            h = fnv1a(h, 0xFF);
        }
        h
    }

    /// Checks that `other` interns the same names in the same order, i.e.
    /// that dense indices can flow between structures compiled against
    /// either universe.
    ///
    /// # Errors
    ///
    /// [`crate::ModelError::UniverseMismatch`] naming the first divergence.
    pub fn verify_compatible(&self, other: &ClassUniverse) -> Result<(), crate::ModelError> {
        if self.names == other.names {
            return Ok(());
        }
        let detail = if self.len() != other.len() {
            format!("{} classes vs {}", self.len(), other.len())
        } else {
            self.names
                .iter()
                .zip(&other.names)
                .enumerate()
                .find(|(_, (a, b))| a != b)
                .map(|(i, (a, b))| format!("index {i}: `{a}` vs `{b}`"))
                .unwrap_or_else(|| "universes differ".to_owned())
        };
        Err(crate::ModelError::UniverseMismatch { detail })
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a 64 step.
fn fnv1a(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3)
}

/// A serialized [`ClassUniverse`]: the ordered name list plus its content
/// hash, meant to travel alongside exported models and reports.
///
/// Restoring a manifest re-checks everything a consumer relies on — that
/// the names are in sorted interning order, free of duplicates, and that
/// the declared hash matches — so a model loaded from foreign bytes either
/// proves its index space or fails with a typed error, rather than
/// re-interning and silently reordering.
///
/// # Example
///
/// ```
/// use hmdiv_core::{ClassUniverse, UniverseManifest};
///
/// let u = ClassUniverse::from_names(["difficult", "easy"]);
/// let manifest = UniverseManifest::of(&u);
/// assert_eq!(manifest.restore().unwrap(), u);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniverseManifest {
    classes: Vec<String>,
    hash: u64,
}

impl UniverseManifest {
    /// Captures a universe's name list and content hash.
    #[must_use]
    pub fn of(universe: &ClassUniverse) -> Self {
        UniverseManifest {
            classes: universe.iter().map(|c| c.name().to_owned()).collect(),
            hash: universe.content_hash(),
        }
    }

    /// Builds a manifest from already-serialized parts (e.g. wire input).
    /// Validation happens in [`UniverseManifest::restore`].
    #[must_use]
    pub fn from_parts(classes: Vec<String>, hash: u64) -> Self {
        UniverseManifest { classes, hash }
    }

    /// The class names in index order.
    #[must_use]
    pub fn classes(&self) -> &[String] {
        &self.classes
    }

    /// The declared content hash.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Rebuilds the universe, verifying index-space integrity.
    ///
    /// # Errors
    ///
    /// [`crate::ModelError::UniverseMismatch`] if the names are unsorted or
    /// duplicated (the declared index order is not the interning order) or
    /// the declared hash does not match the recomputed one.
    pub fn restore(&self) -> Result<ClassUniverse, crate::ModelError> {
        for pair in self.classes.windows(2) {
            if pair[0] >= pair[1] {
                return Err(crate::ModelError::UniverseMismatch {
                    detail: format!(
                        "manifest classes not in sorted interning order: `{}` before `{}`",
                        pair[0], pair[1]
                    ),
                });
            }
        }
        let universe = ClassUniverse::from_names(self.classes.iter().map(String::as_str));
        let recomputed = universe.content_hash();
        if recomputed != self.hash {
            return Err(crate::ModelError::UniverseMismatch {
                detail: format!(
                    "manifest hash {:016x} does not match recomputed {:016x}",
                    self.hash, recomputed
                ),
            });
        }
        Ok(universe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn equality_and_ordering_by_name() {
        assert_eq!(ClassId::new("a"), ClassId::from("a"));
        assert!(ClassId::new("a") < ClassId::new("b"));
    }

    #[test]
    fn borrow_enables_str_lookup() {
        let mut m: BTreeMap<ClassId, u32> = BTreeMap::new();
        m.insert(ClassId::new("easy"), 1);
        assert_eq!(m.get("easy"), Some(&1));
    }

    #[test]
    fn display_and_conversions() {
        let c = ClassId::new("difficult");
        assert_eq!(c.to_string(), "difficult");
        assert_eq!(String::from(c.clone()), "difficult");
        assert_eq!(ClassId::from(String::from("difficult")), c);
        assert_eq!(c.as_ref(), "difficult");
    }

    #[test]
    fn clone_is_cheap_shared() {
        let a = ClassId::new("x");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn universe_interns_sorted_and_deduplicated() {
        let u = ClassUniverse::from_names(["easy", "difficult", "easy", "average"]);
        assert_eq!(u.len(), 3);
        let names: Vec<&str> = u.iter().map(ClassId::name).collect();
        assert_eq!(names, ["average", "difficult", "easy"]);
        for (i, class) in u.classes().iter().enumerate() {
            assert_eq!(u.index_of(class.name()), Some(i as u32));
            assert_eq!(u.class(i as u32), class);
            assert!(u.contains(class.name()));
        }
    }

    #[test]
    fn universe_resolve_errors_on_unknown() {
        let u = ClassUniverse::from_names(["easy"]);
        assert_eq!(u.resolve("easy"), Ok(0));
        assert!(matches!(
            u.resolve("odd"),
            Err(crate::ModelError::UnknownClass { class }) if class.name() == "odd"
        ));
        assert!(!u.contains("odd"));
    }

    #[test]
    fn empty_universe() {
        let u = ClassUniverse::from_names(Vec::<ClassId>::new());
        assert!(u.is_empty());
        assert_eq!(u.index_of("x"), None);
    }

    #[test]
    fn content_hash_depends_on_names_and_boundaries() {
        let a = ClassUniverse::from_names(["easy", "difficult"]);
        let b = ClassUniverse::from_names(["difficult", "easy"]);
        assert_eq!(a.content_hash(), b.content_hash(), "same interned set");
        let c = ClassUniverse::from_names(["easy", "difficul"]);
        assert_ne!(a.content_hash(), c.content_hash());
        // Concatenation across the separator must not collide.
        let d = ClassUniverse::from_names(["ab", "c"]);
        let e = ClassUniverse::from_names(["a", "bc"]);
        assert_ne!(d.content_hash(), e.content_hash());
    }

    #[test]
    fn verify_compatible_names_first_divergence() {
        let a = ClassUniverse::from_names(["difficult", "easy"]);
        assert!(a.verify_compatible(&a.clone()).is_ok());
        let fewer = ClassUniverse::from_names(["easy"]);
        assert!(matches!(
            a.verify_compatible(&fewer),
            Err(crate::ModelError::UniverseMismatch { detail }) if detail.contains("2 classes vs 1")
        ));
        let renamed = ClassUniverse::from_names(["difficult", "hard"]);
        assert!(matches!(
            a.verify_compatible(&renamed),
            Err(crate::ModelError::UniverseMismatch { detail }) if detail.contains("index 1")
        ));
    }

    #[test]
    fn manifest_round_trips() {
        let u = ClassUniverse::from_names(["easy", "difficult", "average"]);
        let m = UniverseManifest::of(&u);
        assert_eq!(m.classes(), ["average", "difficult", "easy"]);
        assert_eq!(m.hash(), u.content_hash());
        assert_eq!(m.restore().unwrap(), u);
    }

    #[test]
    fn manifest_rejects_unsorted_duplicated_and_tampered() {
        let unsorted = UniverseManifest::from_parts(vec!["easy".into(), "difficult".into()], 0);
        assert!(matches!(
            unsorted.restore(),
            Err(crate::ModelError::UniverseMismatch { detail }) if detail.contains("sorted")
        ));
        let duplicated = UniverseManifest::from_parts(vec!["easy".into(), "easy".into()], 0);
        assert!(duplicated.restore().is_err());
        let u = ClassUniverse::from_names(["difficult", "easy"]);
        let tampered = UniverseManifest::from_parts(
            vec!["difficult".into(), "easy".into()],
            u.content_hash() ^ 1,
        );
        assert!(matches!(
            tampered.restore(),
            Err(crate::ModelError::UniverseMismatch { detail }) if detail.contains("hash")
        ));
    }
}
