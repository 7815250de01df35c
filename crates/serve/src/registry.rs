//! The model registry: a content-hash-addressed store of loaded artifacts.
//!
//! Identical parameter tables load to the *same* id — loading is
//! idempotent, so clients can re-send `load` on reconnect without growing
//! the store. Ids are derived with FNV-1a over a canonical byte encoding
//! of the artifact (kind tag, universe content hash, every parameter's
//! `f64::to_bits`), so the id commits to the exact numerics: two models
//! that differ in the 52nd mantissa bit get different ids.
//!
//! Every artifact's dense [`CompiledModel`]
//! form is pre-warmed at load, so the first `evaluate` on a fresh model
//! pays no compile latency on the poller that answers it. If the caller
//! supplies a serialized universe manifest, compatibility is verified at
//! load and a [`hmdiv_core::ModelError::UniverseMismatch`] is reported
//! before the model is admitted.
//!
//! Every load also runs the `hmdiv-analyze` static analyzer over the
//! artifact's compiled form. An error-severity finding refuses admission
//! with [`ServeError::Rejected`], whose wire code is the stable `HM0xx`
//! diagnostic code — bad models are rejected at `load`, not discovered
//! mid-batch at `evaluate`. Warnings and notes never block a load; the
//! `analyze` verb reports them on demand.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};

use hmdiv_core::cohort::{CohortMember, ReaderCohort};
use hmdiv_core::{
    ClassId, CompiledModel, DetectionParams, ModelParams, ParallelDetectionModel, SequentialModel,
    UniverseManifest,
};

use crate::error::ServeError;
use crate::json::{self, Json};
use crate::protocol;

/// FNV-1a offset basis (the same constants the core universe hash uses;
/// kept local so the registry id scheme is self-contained).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Incremental FNV-1a hasher over canonical artifact bytes.
#[derive(Debug)]
struct Fnv(u64);

impl Fnv {
    fn new(kind: u8) -> Self {
        let mut h = Fnv(FNV_OFFSET);
        h.byte(kind);
        h
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
        // Separator so `("ab", "c")` and `("a", "bc")` hash differently.
        self.byte(0xFF);
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A loaded artifact: the registry's unit of storage.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A sequential "machine first, human checks" model.
    Sequential(Arc<SequentialModel>),
    /// A parallel-detection model.
    Detection(Arc<ParallelDetectionModel>),
    /// A weighted reader cohort.
    Cohort(Arc<ReaderCohort>),
}

impl Artifact {
    /// The artifact's kind tag, as reported by the `models` verb.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Artifact::Sequential(_) => "sequential",
            Artifact::Detection(_) => "detection",
            Artifact::Cohort(_) => "cohort",
        }
    }

    /// Runs the static analyzer over the artifact's compiled form. Pure:
    /// the same artifact always yields the same report.
    #[must_use]
    pub fn analyze(&self) -> hmdiv_analyze::Report {
        match self {
            Artifact::Sequential(m) => hmdiv_analyze::analyze_sequential(m),
            Artifact::Detection(m) => hmdiv_analyze::analyze_detection(m.compiled()),
            Artifact::Cohort(c) => hmdiv_analyze::analyze_cohort(c),
        }
    }
}

/// Turns an analyzer report into an admission decision: the first
/// error-severity diagnostic refuses the artifact with its `HM0xx` code
/// on the wire.
fn admit(report: &hmdiv_analyze::Report) -> Result<(), ServeError> {
    match report.first_error() {
        Some(d) => Err(ServeError::Rejected {
            code: d.code.to_owned(),
            detail: d.message.clone(),
        }),
        None => Ok(()),
    }
}

/// What a successful `load` reports back to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReceipt {
    /// The content-addressed artifact id (`m…` for models, `c…` for
    /// cohorts).
    pub id: String,
    /// The class names of the artifact's universe, in index order.
    pub classes: Vec<String>,
    /// The universe content hash.
    pub universe_hash: u64,
}

/// One row of the `models` listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactRow {
    /// The artifact id.
    pub id: String,
    /// The kind tag (`sequential`, `detection`, `cohort`).
    pub kind: &'static str,
    /// Number of classes in the artifact's universe.
    pub classes: usize,
    /// The universe content hash.
    pub universe_hash: u64,
}

/// The content-addressed artifact store shared by all connections.
#[derive(Debug, Default)]
pub struct Registry {
    store: Mutex<BTreeMap<String, Artifact>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn store(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Artifact>> {
        // A poisoned lock means another connection thread panicked while
        // holding it; the map itself (Arc inserts only) is still coherent,
        // so recover rather than cascade the panic through every client.
        self.store
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Loads (or re-finds) a sequential model, pre-warming its compiled
    /// form.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] with `UniverseMismatch` when `manifest` is
    /// given and does not match the model's interned universe.
    pub fn load_sequential(
        &self,
        params: ModelParams,
        manifest: Option<&UniverseManifest>,
    ) -> Result<LoadReceipt, ServeError> {
        let model = SequentialModel::new(params);
        let compiled = Arc::clone(model.compiled());
        verify_manifest(manifest, compiled.universe())?;
        admit(&hmdiv_analyze::analyze_model(&compiled, None))?;
        let mut h = Fnv::new(b'S');
        h.u64(compiled.universe().content_hash());
        for cp in compiled.params_slice() {
            h.f64(cp.p_mf().value());
            h.f64(cp.p_hf_given_ms().value());
            h.f64(cp.p_hf_given_mf().value());
        }
        let id = format!("m{:016x}", h.finish());
        let receipt = LoadReceipt {
            id: id.clone(),
            classes: compiled
                .universe()
                .classes()
                .iter()
                .map(|c| c.name().to_owned())
                .collect(),
            universe_hash: compiled.universe().content_hash(),
        };
        self.store()
            .entry(id)
            .or_insert_with(|| Artifact::Sequential(Arc::new(model)));
        Ok(receipt)
    }

    /// Loads (or re-finds) a parallel-detection model.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] for table validation failures
    /// (empty/duplicate) and manifest mismatches.
    pub fn load_detection(
        &self,
        classes: Vec<(ClassId, DetectionParams)>,
        manifest: Option<&UniverseManifest>,
    ) -> Result<LoadReceipt, ServeError> {
        let mut builder = ParallelDetectionModel::builder();
        for (class, dp) in classes {
            builder = builder.class(class, dp);
        }
        let model = builder.build().map_err(ServeError::Model)?;
        let compiled = Arc::clone(model.compiled());
        verify_manifest(manifest, compiled.universe())?;
        admit(&hmdiv_analyze::analyze_detection(&compiled))?;
        let mut h = Fnv::new(b'D');
        h.u64(compiled.universe().content_hash());
        for index in 0..compiled.universe().len() as u32 {
            let dp = compiled.params_at(index);
            h.f64(dp.p_mf.value());
            h.f64(dp.p_h_miss.value());
            h.f64(dp.p_h_misclass.value());
        }
        let id = format!("m{:016x}", h.finish());
        let receipt = LoadReceipt {
            id: id.clone(),
            classes: compiled
                .universe()
                .classes()
                .iter()
                .map(|c| c.name().to_owned())
                .collect(),
            universe_hash: compiled.universe().content_hash(),
        };
        self.store()
            .entry(id)
            .or_insert_with(|| Artifact::Detection(Arc::new(model)));
        Ok(receipt)
    }

    /// Loads (or re-finds) a reader cohort, pre-warming every member's
    /// compiled model.
    ///
    /// # Errors
    ///
    /// [`ServeError::Model`] for cohort validation failures and manifest
    /// mismatches (checked against every member's universe).
    pub fn load_cohort(
        &self,
        members: Vec<CohortMember>,
        manifest: Option<&UniverseManifest>,
    ) -> Result<LoadReceipt, ServeError> {
        let cohort = ReaderCohort::new(members).map_err(ServeError::Model)?;
        admit(&hmdiv_analyze::analyze_cohort(&cohort))?;
        let mut h = Fnv::new(b'C');
        for m in cohort.members() {
            let compiled = m.model.compiled();
            verify_manifest(manifest, compiled.universe())?;
            h.bytes(m.name.as_bytes());
            h.f64(m.weight);
            h.u64(compiled.universe().content_hash());
            for cp in compiled.params_slice() {
                h.f64(cp.p_mf().value());
                h.f64(cp.p_hf_given_ms().value());
                h.f64(cp.p_hf_given_mf().value());
            }
        }
        // `ReaderCohort::new` rejects empty member lists, so index 0 exists.
        let first = cohort.members()[0].model.compiled();
        let id = format!("c{:016x}", h.finish());
        let receipt = LoadReceipt {
            id: id.clone(),
            classes: first
                .universe()
                .classes()
                .iter()
                .map(|c| c.name().to_owned())
                .collect(),
            universe_hash: first.universe().content_hash(),
        };
        self.store()
            .entry(id)
            .or_insert_with(|| Artifact::Cohort(Arc::new(cohort)));
        Ok(receipt)
    }

    /// Fetches an artifact by id (cheap: clones the inner `Arc`).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownArtifact`] if nothing is loaded under `id`.
    pub fn get(&self, id: &str) -> Result<Artifact, ServeError> {
        self.store()
            .get(id)
            .cloned()
            .ok_or_else(|| ServeError::UnknownArtifact { id: id.to_owned() })
    }

    /// Lists all loaded artifacts in id order.
    #[must_use]
    pub fn list(&self) -> Vec<ArtifactRow> {
        self.store()
            .iter()
            .map(|(id, artifact)| {
                let (classes, universe_hash) = match artifact {
                    Artifact::Sequential(m) => {
                        let u = m.compiled().universe();
                        (u.len(), u.content_hash())
                    }
                    Artifact::Detection(m) => {
                        let u = m.compiled().universe();
                        (u.len(), u.content_hash())
                    }
                    Artifact::Cohort(c) => {
                        let u = c.members()[0].model.compiled().universe();
                        (u.len(), u.content_hash())
                    }
                };
                ArtifactRow {
                    id: id.clone(),
                    kind: artifact.kind(),
                    classes,
                    universe_hash,
                }
            })
            .collect()
    }

    /// Renders the artifact under `id` in the exact wire shape its load
    /// verb accepts — the same rendering `save_to_dir` persists — with the
    /// content id prepended. This is the `fetch` verb's payload and the
    /// fleet sync transfer format: a receiving replica replays the object
    /// through its own load path (re-hash, re-analyze) and checks the
    /// recomputed id against the `id` field, so a corrupt or tampered
    /// transfer cannot be admitted.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownArtifact`] if nothing is loaded under `id`.
    pub fn export_wire(&self, id: &str) -> Result<Json, ServeError> {
        let artifact = self.get(id)?;
        let Json::Obj(mut members) = snapshot_json(&artifact) else {
            unreachable!("snapshot_json always renders an object");
        };
        members.insert(0, ("id".to_owned(), Json::str(id)));
        Ok(Json::Obj(members))
    }

    /// Number of loaded artifacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store().len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.store().is_empty()
    }

    /// Persists every loaded artifact to `dir` as `<id>.json`, one file
    /// per artifact in the exact wire shape the `load`/`load_cohort`
    /// verbs accept. Parameters are rendered with the shortest
    /// round-trip float representation, so a restore rebuilds
    /// bit-identical models and therefore **identical content ids** — the
    /// filename is a checkable commitment. Each file is written to a
    /// temporary `<id>.json.tmp` sibling and synced to disk, then renamed
    /// over `<id>.json`, and the directory is synced after the renames. A
    /// crash or power loss mid-save therefore never leaves a torn snapshot
    /// under a valid id; at worst an orphan `.tmp`, which restore ignores.
    /// Returns the saved ids in id order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] on any I/O failure.
    pub fn save_to_dir(&self, dir: &Path) -> Result<Vec<String>, ServeError> {
        std::fs::create_dir_all(dir).map_err(|e| snapshot_io("create", dir, &e))?;
        let entries: Vec<(String, Artifact)> = self
            .store()
            .iter()
            .map(|(id, artifact)| (id.clone(), artifact.clone()))
            .collect();
        let mut ids = Vec::with_capacity(entries.len());
        for (id, artifact) in entries {
            let mut text = String::new();
            snapshot_json(&artifact).write(&mut text);
            text.push('\n');
            let final_path = dir.join(format!("{id}.json"));
            let tmp_path = dir.join(format!("{id}.json.tmp"));
            write_synced(&tmp_path, text.as_bytes())
                .map_err(|e| snapshot_io("write", &tmp_path, &e))?;
            std::fs::rename(&tmp_path, &final_path)
                .map_err(|e| snapshot_io("rename", &final_path, &e))?;
            ids.push(id);
        }
        // The renames are directory entries: sync them too.
        std::fs::File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| snapshot_io("sync", dir, &e))?;
        Ok(ids)
    }

    /// Restores every `<id>.json` snapshot in `dir`, in filename order.
    /// Each artifact replays through the normal load path — manifest-free,
    /// but **re-gated through the hmdiv-analyze admission check** exactly
    /// like a fresh `load` — and the resulting content id must equal the
    /// filename stem, or the file is rejected as corrupt. Returns the
    /// restored ids. A missing directory restores nothing (empty result),
    /// so a cold start with a configured-but-unused snapshot dir is not
    /// an error.
    ///
    /// # Errors
    ///
    /// [`ServeError::Snapshot`] for unreadable or torn files and id
    /// mismatches; [`ServeError::Rejected`] when a snapshot no longer
    /// passes admission.
    pub fn restore_from_dir(&self, dir: &Path) -> Result<Vec<String>, ServeError> {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(snapshot_io("read", dir, &e)),
        };
        let mut files: Vec<std::path::PathBuf> = Vec::new();
        for entry in entries {
            let path = entry.map_err(|e| snapshot_io("read", dir, &e))?.path();
            if path.extension().is_some_and(|ext| ext == "json") {
                files.push(path);
            }
        }
        files.sort();
        let mut ids = Vec::with_capacity(files.len());
        for path in files {
            let expected = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_owned();
            let text =
                std::fs::read_to_string(&path).map_err(|e| snapshot_io("read", &path, &e))?;
            let body = json::parse(&text).map_err(|e| ServeError::Snapshot {
                detail: format!("{}: {e}", path.display()),
            })?;
            let kind = protocol::required_str(&body, "kind").map_err(|e| ServeError::Snapshot {
                detail: format!("{}: {e}", path.display()),
            })?;
            let receipt = match kind {
                "sequential" => self.load_sequential(
                    protocol::parse_model_params(&body).map_err(|e| ServeError::Snapshot {
                        detail: format!("{}: {e}", path.display()),
                    })?,
                    None,
                )?,
                "detection" => self.load_detection(
                    protocol::parse_detection_params(&body).map_err(|e| ServeError::Snapshot {
                        detail: format!("{}: {e}", path.display()),
                    })?,
                    None,
                )?,
                "cohort" => self.load_cohort(
                    protocol::parse_cohort_members(&body).map_err(|e| ServeError::Snapshot {
                        detail: format!("{}: {e}", path.display()),
                    })?,
                    None,
                )?,
                other => {
                    return Err(ServeError::Snapshot {
                        detail: format!("{}: unknown snapshot kind `{other}`", path.display()),
                    })
                }
            };
            if receipt.id != expected {
                return Err(ServeError::Snapshot {
                    detail: format!(
                        "{}: content id mismatch (file says `{expected}`, payload hashes to \
                         `{}`)",
                        path.display(),
                        receipt.id
                    ),
                });
            }
            ids.push(receipt.id);
        }
        Ok(ids)
    }
}

/// Writes `bytes` to a new file at `path` and syncs its contents to disk.
fn write_synced(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Wraps an I/O failure on a snapshot path as a typed snapshot error.
fn snapshot_io(op: &str, path: &Path, e: &std::io::Error) -> ServeError {
    ServeError::Snapshot {
        detail: format!("{op} {}: {e}", path.display()),
    }
}

/// The per-class parameter map of a sequential model, in universe index
/// order, in the `load` wire shape.
fn sequential_classes_json(compiled: &CompiledModel) -> Json {
    let classes = compiled
        .universe()
        .classes()
        .iter()
        .zip(compiled.params_slice())
        .map(|(class, cp)| {
            (
                class.name().to_owned(),
                Json::Obj(vec![
                    ("p_mf".to_owned(), Json::Num(cp.p_mf().value())),
                    (
                        "p_hf_given_ms".to_owned(),
                        Json::Num(cp.p_hf_given_ms().value()),
                    ),
                    (
                        "p_hf_given_mf".to_owned(),
                        Json::Num(cp.p_hf_given_mf().value()),
                    ),
                ]),
            )
        })
        .collect();
    Json::Obj(classes)
}

/// Renders one artifact in the wire shape its load verb accepts, plus the
/// `kind` discriminator the restore path dispatches on.
fn snapshot_json(artifact: &Artifact) -> Json {
    match artifact {
        Artifact::Sequential(m) => Json::Obj(vec![
            ("kind".to_owned(), Json::str("sequential")),
            ("classes".to_owned(), sequential_classes_json(m.compiled())),
        ]),
        Artifact::Detection(m) => {
            let compiled = m.compiled();
            let classes = compiled
                .universe()
                .classes()
                .iter()
                .enumerate()
                .map(|(index, class)| {
                    #[allow(clippy::cast_possible_truncation)]
                    let dp = compiled.params_at(index as u32);
                    (
                        class.name().to_owned(),
                        Json::Obj(vec![
                            ("p_mf".to_owned(), Json::Num(dp.p_mf.value())),
                            ("p_h_miss".to_owned(), Json::Num(dp.p_h_miss.value())),
                            (
                                "p_h_misclass".to_owned(),
                                Json::Num(dp.p_h_misclass.value()),
                            ),
                        ]),
                    )
                })
                .collect();
            Json::Obj(vec![
                ("kind".to_owned(), Json::str("detection")),
                ("classes".to_owned(), Json::Obj(classes)),
            ])
        }
        Artifact::Cohort(c) => {
            let members = c
                .members()
                .iter()
                .map(|m| {
                    Json::Obj(vec![
                        ("name".to_owned(), Json::str(&m.name)),
                        ("weight".to_owned(), Json::Num(m.weight)),
                        (
                            "classes".to_owned(),
                            sequential_classes_json(m.model.compiled()),
                        ),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("kind".to_owned(), Json::str("cohort")),
                ("members".to_owned(), Json::Arr(members)),
            ])
        }
    }
}

fn verify_manifest(
    manifest: Option<&UniverseManifest>,
    universe: &hmdiv_core::ClassUniverse,
) -> Result<(), ServeError> {
    if let Some(m) = manifest {
        let pinned = m.restore().map_err(ServeError::Model)?;
        pinned
            .verify_compatible(universe)
            .map_err(ServeError::Model)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmdiv_core::paper;

    fn paper_params() -> ModelParams {
        paper::example_model().unwrap().params().clone()
    }

    #[test]
    fn loading_is_idempotent_and_content_addressed() {
        let reg = Registry::new();
        let a = reg.load_sequential(paper_params(), None).unwrap();
        let b = reg.load_sequential(paper_params(), None).unwrap();
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
        assert!(a.id.starts_with('m'));
        assert_eq!(a.classes, ["difficult", "easy"]);
        // A single-bit parameter change produces a different id.
        let tweaked = paper_params()
            .with_class_updated(&ClassId::new("easy"), |cp| {
                Ok(cp.with_p_mf(hmdiv_prob::Probability::new(f64::from_bits(
                    cp.p_mf().value().to_bits() + 1,
                ))?))
            })
            .unwrap();
        let c = reg.load_sequential(tweaked, None).unwrap();
        assert_ne!(a.id, c.id);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn manifest_gate_rejects_mismatched_universes() {
        let reg = Registry::new();
        let wrong = UniverseManifest::of(&hmdiv_core::ClassUniverse::from_names(["other"]));
        let err = reg
            .load_sequential(paper_params(), Some(&wrong))
            .unwrap_err();
        assert!(matches!(
            err,
            ServeError::Model(hmdiv_core::ModelError::UniverseMismatch { .. })
        ));
        assert!(reg.is_empty(), "rejected loads must not be admitted");
        // The right manifest is accepted.
        let model = paper::example_model().unwrap();
        let right = UniverseManifest::of(model.compiled().universe());
        assert!(reg.load_sequential(paper_params(), Some(&right)).is_ok());
    }

    #[test]
    fn analyzer_gate_rejects_mismatched_cohort_universes() {
        let reg = Registry::new();
        let alien = ModelParams::builder()
            .class(
                ClassId::new("alien"),
                hmdiv_core::ClassParams::new(
                    hmdiv_prob::Probability::new(0.1).unwrap(),
                    hmdiv_prob::Probability::new(0.2).unwrap(),
                    hmdiv_prob::Probability::new(0.3).unwrap(),
                ),
            )
            .build()
            .unwrap();
        let err = reg
            .load_cohort(
                vec![
                    CohortMember {
                        name: "r1".into(),
                        model: paper::example_model().unwrap(),
                        weight: 1.0,
                    },
                    CohortMember {
                        name: "r2".into(),
                        model: SequentialModel::new(alien),
                        weight: 1.0,
                    },
                ],
                None,
            )
            .unwrap_err();
        assert_eq!(err.code(), "HM030", "{err}");
        assert!(reg.is_empty(), "rejected loads must not be admitted");
    }

    #[test]
    fn clean_artifacts_analyze_without_errors_and_still_load() {
        let reg = Registry::new();
        let receipt = reg.load_sequential(paper_params(), None).unwrap();
        let artifact = reg.get(&receipt.id).unwrap();
        let report = artifact.analyze();
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn kinds_do_not_collide_and_listing_reports_them() {
        let reg = Registry::new();
        let seq = reg.load_sequential(paper_params(), None).unwrap();
        let det = reg
            .load_detection(
                vec![(
                    ClassId::new("easy"),
                    DetectionParams::new(
                        hmdiv_prob::Probability::new(0.07).unwrap(),
                        hmdiv_prob::Probability::new(0.2).unwrap(),
                        hmdiv_prob::Probability::new(0.05).unwrap(),
                    ),
                )],
                None,
            )
            .unwrap();
        let coh = reg
            .load_cohort(
                vec![CohortMember {
                    name: "r1".into(),
                    model: paper::example_model().unwrap(),
                    weight: 1.0,
                }],
                None,
            )
            .unwrap();
        assert_ne!(seq.id, det.id);
        assert!(coh.id.starts_with('c'));
        let rows = reg.list();
        assert_eq!(rows.len(), 3);
        let kinds: Vec<&str> = rows.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&"sequential"));
        assert!(kinds.contains(&"detection"));
        assert!(kinds.contains(&"cohort"));
        assert!(matches!(
            reg.get("m0000000000000000"),
            Err(ServeError::UnknownArtifact { .. })
        ));
        assert!(reg.get(&seq.id).is_ok());
    }

    /// A unique scratch directory under the system temp dir, removed when
    /// dropped.
    struct ScratchDir(std::path::PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> ScratchDir {
            static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
            let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("hmdiv-registry-{tag}-{}-{n}", std::process::id()));
            ScratchDir(dir)
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            drop(std::fs::remove_dir_all(&self.0));
        }
    }

    #[test]
    fn snapshots_round_trip_every_kind_with_identical_ids() {
        let reg = Registry::new();
        let seq = reg.load_sequential(paper_params(), None).unwrap();
        let det = reg
            .load_detection(
                vec![(
                    ClassId::new("easy"),
                    DetectionParams::new(
                        hmdiv_prob::Probability::new(0.07).unwrap(),
                        hmdiv_prob::Probability::new(0.2).unwrap(),
                        hmdiv_prob::Probability::new(0.05).unwrap(),
                    ),
                )],
                None,
            )
            .unwrap();
        let coh = reg
            .load_cohort(
                vec![
                    CohortMember {
                        name: "r1".into(),
                        model: paper::example_model().unwrap(),
                        weight: 2.0,
                    },
                    CohortMember {
                        name: "r2".into(),
                        model: paper::example_model().unwrap(),
                        weight: 1.0,
                    },
                ],
                None,
            )
            .unwrap();
        let scratch = ScratchDir::new("roundtrip");
        let saved = reg.save_to_dir(&scratch.0).unwrap();
        assert_eq!(saved.len(), 3);

        // A fresh registry restored from disk serves the same ids.
        let warm = Registry::new();
        let mut restored = warm.restore_from_dir(&scratch.0).unwrap();
        restored.sort();
        let mut expected = vec![seq.id.clone(), det.id.clone(), coh.id.clone()];
        expected.sort();
        assert_eq!(restored, expected, "restore must rebuild identical ids");
        assert!(warm.get(&seq.id).is_ok());
        assert!(warm.get(&det.id).is_ok());
        assert!(warm.get(&coh.id).is_ok());
        // The restored sequential model is bit-identical, not just
        // id-identical.
        let (orig, back) = (reg.get(&seq.id).unwrap(), warm.get(&seq.id).unwrap());
        let (Artifact::Sequential(a), Artifact::Sequential(b)) = (orig, back) else {
            panic!("expected sequential artifacts");
        };
        let profile = paper::field_profile().unwrap();
        let pa = a.compiled().bind_profile(&profile).unwrap();
        let pb = b.compiled().bind_profile(&profile).unwrap();
        assert_eq!(
            a.compiled().system_failure(&pa).value().to_bits(),
            b.compiled().system_failure(&pb).value().to_bits()
        );
    }

    #[test]
    fn export_wire_round_trips_through_the_load_path() {
        let reg = Registry::new();
        let receipt = reg.load_sequential(paper_params(), None).unwrap();
        let wire = reg.export_wire(&receipt.id).unwrap();
        // The id leads the object and matches the registry key.
        assert_eq!(wire.get("id").and_then(Json::as_str), Some(&*receipt.id));
        assert_eq!(wire.get("kind").and_then(Json::as_str), Some("sequential"));
        // Replaying the exported shape into a fresh registry rebuilds the
        // identical content id — the sync transfer invariant.
        let peer = Registry::new();
        let replayed = peer
            .load_sequential(protocol::parse_model_params(&wire).unwrap(), None)
            .unwrap();
        assert_eq!(replayed.id, receipt.id);
        assert!(matches!(
            reg.export_wire("m0000000000000000"),
            Err(ServeError::UnknownArtifact { .. })
        ));
    }

    #[test]
    fn missing_snapshot_dir_restores_nothing() {
        let reg = Registry::new();
        let scratch = ScratchDir::new("missing");
        assert_eq!(
            reg.restore_from_dir(&scratch.0).unwrap(),
            Vec::<String>::new()
        );
        assert!(reg.is_empty());
    }

    #[test]
    fn restore_ignores_an_orphan_tmp_beside_valid_snapshots() {
        let reg = Registry::new();
        let seq = reg.load_sequential(paper_params(), None).unwrap();
        let coh = reg
            .load_cohort(
                vec![CohortMember {
                    name: "r1".into(),
                    model: paper::example_model().unwrap(),
                    weight: 1.0,
                }],
                None,
            )
            .unwrap();
        let scratch = ScratchDir::new("orphan");
        let mut saved = reg.save_to_dir(&scratch.0).unwrap();
        // A save leaves no temporary files behind.
        let mut names: Vec<String> = std::fs::read_dir(&scratch.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        let mut expected: Vec<String> = saved.iter().map(|id| format!("{id}.json")).collect();
        expected.sort();
        assert_eq!(names, expected);
        // What a crash between write and rename leaves: a torn `.tmp` for
        // an id that also has a valid snapshot, and one for an id that
        // never made it.
        let text = std::fs::read_to_string(scratch.0.join(format!("{}.json", seq.id))).unwrap();
        std::fs::write(
            scratch.0.join(format!("{}.json.tmp", seq.id)),
            &text[..text.len() / 2],
        )
        .unwrap();
        std::fs::write(scratch.0.join("m00000000000000ff.json.tmp"), "").unwrap();
        let warm = Registry::new();
        let mut restored = warm.restore_from_dir(&scratch.0).unwrap();
        restored.sort();
        saved.sort();
        assert_eq!(restored, saved);
        assert!(warm.get(&seq.id).is_ok());
        assert!(warm.get(&coh.id).is_ok());
        assert_eq!(warm.len(), 2);
    }

    #[test]
    fn tampered_snapshots_are_rejected_by_the_id_check() {
        let reg = Registry::new();
        let receipt = reg.load_sequential(paper_params(), None).unwrap();
        let scratch = ScratchDir::new("tamper");
        reg.save_to_dir(&scratch.0).unwrap();
        // Rename the snapshot so the filename no longer matches the
        // payload's content hash: the restore must refuse it.
        let good = scratch.0.join(format!("{}.json", receipt.id));
        let forged = scratch.0.join("m00000000000000ff.json");
        std::fs::rename(&good, &forged).unwrap();
        let warm = Registry::new();
        let err = warm.restore_from_dir(&scratch.0).unwrap_err();
        assert_eq!(err.code(), "snapshot_error");
        assert!(err.to_string().contains("content id mismatch"), "{err}");
        // Garbage files are a typed error too, not a panic.
        std::fs::write(scratch.0.join(format!("{}.json", receipt.id)), "not json").unwrap();
        std::fs::remove_file(&forged).unwrap();
        let err = Registry::new().restore_from_dir(&scratch.0).unwrap_err();
        assert_eq!(err.code(), "snapshot_error");
    }
}
