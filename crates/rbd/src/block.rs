use std::collections::BTreeSet;
use std::fmt;

use crate::RbdError;

/// A reliability block diagram, as a composable tree.
///
/// Leaves are named components; inner nodes are series, parallel or
/// k-out-of-n groups. The same component name may appear at several leaves
/// (shared components); evaluation handles the induced dependence by
/// conditioning (factoring).
///
/// The diagram describes *success* logic: a series group works iff all
/// children work, a parallel group works iff at least one child works, and a
/// `k`-of-`n` group works iff at least `k` children work.
///
/// # Example
///
/// ```
/// use hmdiv_rbd::Block;
///
/// // The paper's Fig. 2: (human-detect ∥ machine-detect) → human-classify
/// let fig2 = Block::series(vec![
///     Block::parallel(vec![
///         Block::component("Hdetect"),
///         Block::component("Mdetect"),
///     ]),
///     Block::component("Hclassify"),
/// ]);
/// assert_eq!(fig2.component_names().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Block {
    /// A basic component, identified by name.
    Component(String),
    /// All children must work.
    Series(Vec<Block>),
    /// At least one child must work.
    Parallel(Vec<Block>),
    /// At least `k` of the children must work.
    KOfN {
        /// Minimum number of working children.
        k: usize,
        /// The children.
        blocks: Vec<Block>,
    },
}

impl Block {
    /// A leaf component with the given name.
    #[must_use]
    pub fn component(name: impl Into<String>) -> Block {
        Block::Component(name.into())
    }

    /// A series group (all children must work).
    ///
    /// Empty groups are rejected at [validation](Block::validate) rather
    /// than construction, so diagrams can be built incrementally.
    #[must_use]
    pub fn series(blocks: Vec<Block>) -> Block {
        Block::Series(blocks)
    }

    /// A parallel group (any child suffices).
    #[must_use]
    pub fn parallel(blocks: Vec<Block>) -> Block {
        Block::Parallel(blocks)
    }

    /// A k-out-of-n group.
    #[must_use]
    pub fn k_of_n(k: usize, blocks: Vec<Block>) -> Block {
        Block::KOfN { k, blocks }
    }

    /// Checks structural validity: no empty groups, and every k-of-n group
    /// has `1 <= k <= n`.
    ///
    /// # Errors
    ///
    /// * [`RbdError::EmptyGroup`] for an empty series/parallel/k-of-n group.
    /// * [`RbdError::InvalidThreshold`] for a k-of-n group with `k == 0` or
    ///   `k > n` (a `k == 0` group would be trivially always working and a
    ///   `k > n` group trivially always failed; both are almost certainly
    ///   modelling mistakes, so they are rejected).
    pub fn validate(&self) -> Result<(), RbdError> {
        match self {
            Block::Component(_) => Ok(()),
            Block::Series(blocks) => {
                if blocks.is_empty() {
                    return Err(RbdError::EmptyGroup { kind: "series" });
                }
                blocks.iter().try_for_each(Block::validate)
            }
            Block::Parallel(blocks) => {
                if blocks.is_empty() {
                    return Err(RbdError::EmptyGroup { kind: "parallel" });
                }
                blocks.iter().try_for_each(Block::validate)
            }
            Block::KOfN { k, blocks } => {
                if blocks.is_empty() {
                    return Err(RbdError::EmptyGroup { kind: "k-of-n" });
                }
                if *k == 0 || *k > blocks.len() {
                    return Err(RbdError::InvalidThreshold {
                        k: *k,
                        n: blocks.len(),
                    });
                }
                blocks.iter().try_for_each(Block::validate)
            }
        }
    }

    /// The set of distinct component names in the diagram, sorted.
    #[must_use]
    pub fn component_names(&self) -> Vec<&str> {
        let mut names = BTreeSet::new();
        self.collect_names(&mut names);
        names.into_iter().collect()
    }

    fn collect_names<'a>(&'a self, out: &mut BTreeSet<&'a str>) {
        match self {
            Block::Component(name) => {
                out.insert(name.as_str());
            }
            Block::Series(blocks) | Block::Parallel(blocks) | Block::KOfN { blocks, .. } => {
                for b in blocks {
                    b.collect_names(out);
                }
            }
        }
    }

    /// Names of components that appear at more than one leaf, sorted.
    ///
    /// Shared components make naive series/parallel probability composition
    /// wrong; [`crate::reliability`] conditions on them.
    #[must_use]
    pub fn repeated_names(&self) -> Vec<&str> {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        self.count_names(&mut counts);
        counts
            .into_iter()
            .filter(|(_, c)| *c > 1)
            .map(|(n, _)| n)
            .collect()
    }

    fn count_names<'a>(&'a self, out: &mut std::collections::BTreeMap<&'a str, usize>) {
        match self {
            Block::Component(name) => {
                *out.entry(name.as_str()).or_insert(0) += 1;
            }
            Block::Series(blocks) | Block::Parallel(blocks) | Block::KOfN { blocks, .. } => {
                for b in blocks {
                    b.count_names(out);
                }
            }
        }
    }

    /// Total number of leaves (component occurrences, counting repeats).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        match self {
            Block::Component(_) => 1,
            Block::Series(blocks) | Block::Parallel(blocks) | Block::KOfN { blocks, .. } => {
                blocks.iter().map(Block::leaf_count).sum()
            }
        }
    }

    /// Depth of the tree (a lone component has depth 1).
    #[must_use]
    pub fn depth(&self) -> usize {
        match self {
            Block::Component(_) => 1,
            Block::Series(blocks) | Block::Parallel(blocks) | Block::KOfN { blocks, .. } => {
                1 + blocks.iter().map(Block::depth).max().unwrap_or(0)
            }
        }
    }

    /// Returns a copy of the diagram with component `name` replaced by the
    /// given sub-diagram everywhere it occurs.
    ///
    /// Useful for refining a coarse model (e.g. replacing the paper's
    /// monolithic "reader" block by a detect→classify series).
    #[must_use]
    pub fn with_replacement(&self, name: &str, replacement: &Block) -> Block {
        match self {
            Block::Component(n) if n == name => replacement.clone(),
            Block::Component(_) => self.clone(),
            Block::Series(blocks) => Block::Series(
                blocks
                    .iter()
                    .map(|b| b.with_replacement(name, replacement))
                    .collect(),
            ),
            Block::Parallel(blocks) => Block::Parallel(
                blocks
                    .iter()
                    .map(|b| b.with_replacement(name, replacement))
                    .collect(),
            ),
            Block::KOfN { k, blocks } => Block::KOfN {
                k: *k,
                blocks: blocks
                    .iter()
                    .map(|b| b.with_replacement(name, replacement))
                    .collect(),
            },
        }
    }
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Block::Component(name) => write!(f, "{name}"),
            Block::Series(blocks) => {
                write!(f, "(")?;
                for (i, b) in blocks.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            Block::Parallel(blocks) => {
                write!(f, "(")?;
                for (i, b) in blocks.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
            Block::KOfN { k, blocks } => {
                write!(f, "{k}of{}(", blocks.len())?;
                for (i, b) in blocks.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{b}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig2() -> Block {
        Block::series(vec![
            Block::parallel(vec![
                Block::component("Hdetect"),
                Block::component("Mdetect"),
            ]),
            Block::component("Hclassify"),
        ])
    }

    #[test]
    fn validate_accepts_fig2() {
        fig2().validate().unwrap();
    }

    #[test]
    fn validate_rejects_empty_groups() {
        assert_eq!(
            Block::series(vec![]).validate(),
            Err(RbdError::EmptyGroup { kind: "series" })
        );
        assert_eq!(
            Block::parallel(vec![]).validate(),
            Err(RbdError::EmptyGroup { kind: "parallel" })
        );
        assert!(Block::k_of_n(1, vec![]).validate().is_err());
        // Nested empties are caught too.
        let nested = Block::series(vec![Block::parallel(vec![])]);
        assert!(nested.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_thresholds() {
        let two = vec![Block::component("a"), Block::component("b")];
        assert!(Block::k_of_n(0, two.clone()).validate().is_err());
        assert!(Block::k_of_n(3, two.clone()).validate().is_err());
        assert!(Block::k_of_n(1, two.clone()).validate().is_ok());
        assert!(Block::k_of_n(2, two).validate().is_ok());
    }

    #[test]
    fn component_names_sorted_distinct() {
        let b = fig2();
        assert_eq!(b.component_names(), vec!["Hclassify", "Hdetect", "Mdetect"]);
    }

    #[test]
    fn repeated_names_detected() {
        assert!(fig2().repeated_names().is_empty());
        let shared = Block::parallel(vec![
            Block::series(vec![Block::component("a"), Block::component("b")]),
            Block::series(vec![Block::component("a"), Block::component("c")]),
        ]);
        assert_eq!(shared.repeated_names(), vec!["a"]);
    }

    #[test]
    fn leaf_count_and_depth() {
        let b = fig2();
        assert_eq!(b.leaf_count(), 3);
        assert_eq!(b.depth(), 3);
        assert_eq!(Block::component("x").leaf_count(), 1);
        assert_eq!(Block::component("x").depth(), 1);
    }

    #[test]
    fn replacement_substitutes_everywhere() {
        let shared = Block::parallel(vec![Block::component("r"), Block::component("r")]);
        let refined = shared.with_replacement(
            "r",
            &Block::series(vec![
                Block::component("detect"),
                Block::component("classify"),
            ]),
        );
        assert_eq!(refined.leaf_count(), 4);
        assert_eq!(refined.component_names(), vec!["classify", "detect"]);
        // Replacing an absent name is the identity.
        let same = shared.with_replacement("missing", &Block::component("x"));
        assert_eq!(same, shared);
    }

    #[test]
    fn display_reads_like_a_diagram() {
        let s = fig2().to_string();
        assert_eq!(s, "((Hdetect | Mdetect) -> Hclassify)");
        let k = Block::k_of_n(
            2,
            vec![
                Block::component("a"),
                Block::component("b"),
                Block::component("c"),
            ],
        );
        assert_eq!(k.to_string(), "2of3(a, b, c)");
    }
}
