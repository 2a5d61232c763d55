//! On-disk model registry: versioned persistence for trained models.
//!
//! A registry is a directory of `<name>.atlas.json` files, each holding a
//! [`ModelHeader`] (format version + configuration fingerprint), the
//! [`ExperimentConfig`] the model was trained under, and the
//! [`AtlasModel`] weights themselves (via its serde representation, the
//! same bytes `AtlasModel::to_json` produces). The header lets a service
//! refuse models written by an incompatible build instead of
//! mis-deserializing them, and the config fingerprint detects files whose
//! embedded config was edited after training.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use atlas_core::{AtlasModel, ExperimentConfig};
use serde::{Deserialize, Serialize};

/// Version of the on-disk model format. Bump on any breaking change to
/// the serialized layout of the private `ModelFile` type or its nested
/// types.
pub const FORMAT_VERSION: u32 = 1;

/// File suffix of registry entries.
const SUFFIX: &str = ".atlas.json";

/// Metadata stored alongside a persisted model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelHeader {
    /// On-disk format version ([`FORMAT_VERSION`] at write time).
    pub format_version: u32,
    /// Registry name the model was saved under.
    pub name: String,
    /// FNV-1a fingerprint of the training configuration's canonical JSON.
    pub config_fingerprint: u64,
}

/// The full on-disk layout of one registry entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ModelFile {
    header: ModelHeader,
    config: ExperimentConfig,
    model: AtlasModel,
}

/// A model loaded back from a registry.
#[derive(Debug, Clone)]
pub struct SavedModel {
    /// The persisted header.
    pub header: ModelHeader,
    /// The training configuration (the serving layer needs its `scale`
    /// and seeds to regenerate designs and workloads deterministically).
    pub config: ExperimentConfig,
    /// The deployable model.
    pub model: AtlasModel,
}

/// Why a registry operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// Filesystem problem (path + OS error text).
    Io(String),
    /// The file exists but is not a valid model file.
    Corrupt(String),
    /// The file was written by an incompatible format version.
    WrongVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build reads/writes.
        expected: u32,
    },
    /// The embedded config does not hash to the header's fingerprint.
    FingerprintMismatch {
        /// Fingerprint claimed by the header.
        claimed: u64,
        /// Fingerprint of the config actually in the file.
        actual: u64,
    },
    /// No entry with this name.
    NotFound(String),
    /// The model name contains path separators or other invalid chars.
    InvalidName(String),
    /// A catalog already holds a model under this serving name.
    Duplicate(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(msg) => write!(f, "registry I/O error: {msg}"),
            RegistryError::Corrupt(msg) => write!(f, "corrupt model file: {msg}"),
            RegistryError::WrongVersion { found, expected } => write!(
                f,
                "model format version {found} is not supported (this build reads {expected})"
            ),
            RegistryError::FingerprintMismatch { claimed, actual } => write!(
                f,
                "config fingerprint mismatch: header claims {claimed:#018x}, \
                 embedded config hashes to {actual:#018x}"
            ),
            RegistryError::NotFound(name) => write!(f, "no model named `{name}` in registry"),
            RegistryError::InvalidName(name) => write!(f, "invalid model name `{name}`"),
            RegistryError::Duplicate(name) => {
                write!(f, "catalog already serves a model named `{name}`")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// Stable FNV-1a fingerprint of an experiment configuration's canonical
/// JSON serialization.
pub fn config_fingerprint(config: &ExperimentConfig) -> u64 {
    let bytes = serde_json::to_vec(config).unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A directory of persisted models.
#[derive(Debug, Clone)]
pub struct ModelRegistry {
    dir: PathBuf,
}

impl ModelRegistry {
    /// Open (creating if needed) a registry rooted at `dir`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ModelRegistry, RegistryError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| RegistryError::Io(format!("create {}: {e}", dir.display())))?;
        Ok(ModelRegistry { dir })
    }

    /// The registry's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file path a model name maps to.
    pub fn path_for(&self, name: &str) -> PathBuf {
        self.dir.join(format!("{name}{SUFFIX}"))
    }

    /// Persist a model under `name`, overwriting any previous version.
    ///
    /// # Errors
    ///
    /// [`RegistryError::InvalidName`] for names with path separators;
    /// [`RegistryError::Io`] on write failure.
    pub fn save(
        &self,
        name: &str,
        model: &AtlasModel,
        config: &ExperimentConfig,
    ) -> Result<PathBuf, RegistryError> {
        validate_name(name)?;
        let file = ModelFile {
            header: ModelHeader {
                format_version: FORMAT_VERSION,
                name: name.to_owned(),
                config_fingerprint: config_fingerprint(config),
            },
            config: config.clone(),
            model: model.clone(),
        };
        let json = serde_json::to_string(&file)
            .map_err(|e| RegistryError::Corrupt(format!("serialize `{name}`: {e}")))?;
        let path = self.path_for(name);
        // Write-then-rename so a concurrent load never sees a torn file.
        let tmp = self.dir.join(format!(".{name}{SUFFIX}.tmp"));
        fs::write(&tmp, json)
            .map_err(|e| RegistryError::Io(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, &path)
            .map_err(|e| RegistryError::Io(format!("rename {}: {e}", path.display())))?;
        Ok(path)
    }

    /// Load the model saved under `name`, validating its header.
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] when no such entry exists;
    /// [`RegistryError::WrongVersion`] for incompatible files;
    /// [`RegistryError::FingerprintMismatch`] when the embedded config
    /// does not match the header; [`RegistryError::Corrupt`] on parse
    /// failure or a malformed model (see [`AtlasModel::validate`]).
    pub fn load(&self, name: &str) -> Result<SavedModel, RegistryError> {
        validate_name(name)?;
        let path = self.path_for(name);
        let json = match fs::read_to_string(&path) {
            Ok(json) => json,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(RegistryError::NotFound(name.to_owned()))
            }
            Err(e) => return Err(RegistryError::Io(format!("read {}: {e}", path.display()))),
        };
        parse_model_file(&path, &json)
    }

    /// Load a model file from an explicit path (not necessarily inside
    /// this — or any — registry directory), validating its header exactly
    /// like [`ModelRegistry::load`].
    ///
    /// # Errors
    ///
    /// The same validation errors as [`ModelRegistry::load`], plus
    /// [`RegistryError::Io`] when the file cannot be read.
    pub fn load_file(path: impl AsRef<Path>) -> Result<SavedModel, RegistryError> {
        let path = path.as_ref();
        let json = fs::read_to_string(path)
            .map_err(|e| RegistryError::Io(format!("read {}: {e}", path.display())))?;
        parse_model_file(path, &json)
    }

    /// Names of all models in the registry, sorted.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the directory cannot be read.
    pub fn list(&self) -> Result<Vec<String>, RegistryError> {
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| RegistryError::Io(format!("read {}: {e}", self.dir.display())))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry
                .map_err(|e| RegistryError::Io(format!("read {}: {e}", self.dir.display())))?;
            let file_name = entry.file_name();
            let file_name = file_name.to_string_lossy();
            if let Some(name) = file_name.strip_suffix(SUFFIX) {
                if !name.starts_with('.') {
                    names.push(name.to_owned());
                }
            }
        }
        names.sort();
        Ok(names)
    }
}

/// Version-check, fingerprint-check, deserialize, and validate one model
/// file's contents (`path` only labels errors). Validation compiles the
/// heads' forests, so a malformed ensemble is a typed `Corrupt` error
/// here instead of a panic or a hang at its first prediction.
fn parse_model_file(path: &Path, json: &str) -> Result<SavedModel, RegistryError> {
    // Check the version before attempting to deserialize the weights:
    // a future format may not even parse as today's `ModelFile`.
    let version = peek_format_version(json)
        .ok_or_else(|| RegistryError::Corrupt(format!("{}: no header", path.display())))?;
    if version != FORMAT_VERSION {
        return Err(RegistryError::WrongVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let file: ModelFile = serde_json::from_str(json)
        .map_err(|e| RegistryError::Corrupt(format!("{}: {e}", path.display())))?;
    let actual = config_fingerprint(&file.config);
    if actual != file.header.config_fingerprint {
        return Err(RegistryError::FingerprintMismatch {
            claimed: file.header.config_fingerprint,
            actual,
        });
    }
    file.model
        .validate()
        .map_err(|e| RegistryError::Corrupt(format!("{}: {e}", path.display())))?;
    Ok(SavedModel {
        header: file.header,
        config: file.config,
        model: file.model,
    })
}

/// An ordered set of models to serve behind one front door, each under a
/// serving name. The first inserted model is the **default** (used by
/// requests that carry no `model` field) unless
/// [`ModelCatalog::set_default`] picks another.
///
/// A catalog is assembled before the service starts — from registry
/// entries, explicit files ([`ModelCatalog::load_spec`]), or in-memory
/// models — and handed to `AtlasService::start_catalog`. Every loading
/// path runs the full registry validation (format version, config
/// fingerprint, and a well-formed model), so an incompatible or malformed
/// file is rejected at catalog build time, never at request time.
#[derive(Debug, Clone, Default)]
pub struct ModelCatalog {
    entries: Vec<(String, SavedModel)>,
    default: Option<String>,
}

impl ModelCatalog {
    /// An empty catalog.
    pub fn new() -> ModelCatalog {
        ModelCatalog::default()
    }

    /// Whether `name` is usable as a serving name (the same rule the
    /// registry applies to entry names).
    pub fn valid_name(name: &str) -> bool {
        validate_name(name).is_ok()
    }

    /// Add a loaded model under `name`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::InvalidName`] for names the registry itself would
    /// reject; [`RegistryError::Duplicate`] when the name is taken.
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        saved: SavedModel,
    ) -> Result<(), RegistryError> {
        let name = name.into();
        validate_name(&name)?;
        if self.entries.iter().any(|(n, _)| *n == name) {
            return Err(RegistryError::Duplicate(name));
        }
        self.entries.push((name, saved));
        Ok(())
    }

    /// Add an in-memory model (no registry file) under `name`, wrapping
    /// it in a synthesized header — the path tests and benches use.
    ///
    /// # Errors
    ///
    /// Same as [`ModelCatalog::insert`].
    pub fn insert_model(
        &mut self,
        name: impl Into<String>,
        model: AtlasModel,
        config: ExperimentConfig,
    ) -> Result<(), RegistryError> {
        let name = name.into();
        let header = ModelHeader {
            format_version: FORMAT_VERSION,
            name: name.clone(),
            config_fingerprint: config_fingerprint(&config),
        };
        self.insert(
            name,
            SavedModel {
                header,
                config,
                model,
            },
        )
    }

    /// Load one `--model` flag value into the catalog.
    ///
    /// The spec is `NAME`, `ALIAS=NAME`, or `ALIAS=PATH`: a bare `NAME`
    /// loads that registry entry and serves it under the same name; the
    /// `=` forms serve the loaded model under `ALIAS`. A value containing
    /// a path separator (or ending in `.atlas.json`) is read as a file
    /// path instead of a registry entry, so one process can serve models
    /// from several directories.
    ///
    /// Returns the serving name the model landed under.
    ///
    /// # Errors
    ///
    /// Any [`RegistryError`] from loading or inserting — including
    /// [`RegistryError::WrongVersion`] and
    /// [`RegistryError::FingerprintMismatch`], which reject incompatible
    /// files before the service ever starts.
    pub fn load_spec(
        &mut self,
        registry: &ModelRegistry,
        spec: &str,
    ) -> Result<String, RegistryError> {
        let (alias, source) = match spec.split_once('=') {
            Some((alias, source)) => (Some(alias), source),
            None => (None, spec),
        };
        let is_path = source.contains(std::path::MAIN_SEPARATOR) || source.ends_with(SUFFIX);
        let (saved, fallback_name) = if is_path {
            let stem = Path::new(source)
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_default();
            let fallback = stem.strip_suffix(SUFFIX).unwrap_or(&stem).to_owned();
            (ModelRegistry::load_file(source)?, fallback)
        } else {
            (registry.load(source)?, source.to_owned())
        };
        let name = alias.map_or(fallback_name, str::to_owned);
        self.insert(name.clone(), saved)?;
        Ok(name)
    }

    /// Pick the default model (the one `model`-less requests route to).
    ///
    /// # Errors
    ///
    /// [`RegistryError::NotFound`] when no entry has this serving name.
    pub fn set_default(&mut self, name: &str) -> Result<(), RegistryError> {
        if self.entries.iter().any(|(n, _)| n == name) {
            self.default = Some(name.to_owned());
            Ok(())
        } else {
            Err(RegistryError::NotFound(name.to_owned()))
        }
    }

    /// The default serving name: [`ModelCatalog::set_default`]'s choice,
    /// else the first inserted entry. `None` for an empty catalog.
    pub fn default_model(&self) -> Option<&str> {
        self.default
            .as_deref()
            .or_else(|| self.entries.first().map(|(n, _)| n.as_str()))
    }

    /// Serving names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of models in the catalog.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog holds no models.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Consume the catalog into `(default_name, entries)` — the service
    /// constructor's input. `None` when the catalog is empty.
    pub fn into_entries(self) -> Option<(String, Vec<(String, SavedModel)>)> {
        let default = self.default_model()?.to_owned();
        Some((default, self.entries))
    }
}

fn validate_name(name: &str) -> Result<(), RegistryError> {
    let ok = !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'));
    if ok {
        Ok(())
    } else {
        Err(RegistryError::InvalidName(name.to_owned()))
    }
}

/// Extract `header.format_version` without deserializing the weights.
fn peek_format_version(json: &str) -> Option<u32> {
    let value = serde_json::from_str_value(json).ok()?;
    let header = value
        .as_map()?
        .iter()
        .find(|(k, _)| k == "header")
        .map(|(_, v)| v)?;
    let version = header
        .as_map()?
        .iter()
        .find(|(k, _)| k == "format_version")
        .map(|(_, v)| v)?;
    match version {
        serde::Value::UInt(n) => u32::try_from(*n).ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_validation() {
        assert!(validate_name("atlas-v1.2_final").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("../escape").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name(".hidden").is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = ExperimentConfig::quick();
        let mut b = ExperimentConfig::quick();
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a));
        b.cycles += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
    }

    use std::sync::OnceLock;

    use atlas_core::pipeline::train_atlas;
    use atlas_sim::{simulate, PhasedWorkload};
    use serde::Value;

    /// A micro model trained once per test process, and its saved file.
    fn micro_saved() -> &'static (ExperimentConfig, AtlasModel, String) {
        static SAVED: OnceLock<(ExperimentConfig, AtlasModel, String)> = OnceLock::new();
        SAVED.get_or_init(|| {
            let mut cfg = ExperimentConfig::quick();
            cfg.cycles = 12;
            cfg.scale = 0.12;
            cfg.pretrain.steps = 10;
            cfg.pretrain.hidden_dim = 12;
            cfg.finetune.cycles_per_design = 4;
            cfg.finetune.gbdt.n_estimators = 12;
            let model = train_atlas(&cfg).model;
            let dir = scratch_dir("micro");
            let path = ModelRegistry::open(&dir)
                .expect("registry opens")
                .save("micro", &model, &cfg)
                .expect("saves");
            let json = fs::read_to_string(path).expect("reads back");
            let _ = fs::remove_dir_all(&dir);
            (cfg, model, json)
        })
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("atlas-registry-{tag}-{}", std::process::id()))
    }

    fn field_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
        match value {
            Value::Map(entries) => {
                &mut entries
                    .iter_mut()
                    .find(|(k, _)| k == key)
                    .unwrap_or_else(|| panic!("no field `{key}`"))
                    .1
            }
            other => panic!("`{key}` looked up in a {}", other.kind()),
        }
    }

    fn split(feature: u64, left: u64, right: u64) -> Value {
        let fields = vec![
            ("feature".to_owned(), Value::UInt(feature)),
            ("threshold".to_owned(), Value::Float(0.5)),
            ("bin_cut".to_owned(), Value::UInt(1)),
            ("left".to_owned(), Value::UInt(left)),
            ("right".to_owned(), Value::UInt(right)),
        ];
        Value::Map(vec![("Split".to_owned(), Value::Map(fields))])
    }

    fn leaf() -> Value {
        Value::Map(vec![("Leaf".to_owned(), Value::Float(0.25))])
    }

    /// The saved micro model with `edit` applied to its `f_ct` head, loaded
    /// back through the registry.
    fn load_edited(tag: &str, edit: impl FnOnce(&mut Value)) -> Result<SavedModel, RegistryError> {
        let (_, _, json) = micro_saved();
        let mut root = serde_json::from_str_value(json).expect("parses");
        let head = ["model", "heads", "f_ct"]
            .iter()
            .fold(&mut root, |v, key| field_mut(v, key));
        edit(head);
        let dir = scratch_dir(tag);
        fs::create_dir_all(&dir).expect("creates");
        let path = dir.join(format!("{tag}{SUFFIX}"));
        fs::write(&path, serde_json::to_string(&root).expect("renders")).expect("writes");
        let loaded = ModelRegistry::open(&dir).expect("opens").load(tag);
        let _ = fs::remove_dir_all(&dir);
        loaded
    }

    /// Replace the first tree of the edited head with `nodes`.
    fn first_tree(nodes: Vec<Value>) -> impl FnOnce(&mut Value) {
        move |head| match field_mut(head, "trees") {
            Value::Seq(trees) => *field_mut(&mut trees[0], "nodes") = Value::Seq(nodes),
            other => panic!("trees is a {}", other.kind()),
        }
    }

    fn assert_corrupt(result: Result<SavedModel, RegistryError>, needle: &str) {
        match result {
            Err(RegistryError::Corrupt(msg)) => {
                assert!(msg.contains(needle), "`{msg}` lacks `{needle}`")
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a hostile model loaded"),
        }
    }

    #[test]
    fn loaded_model_predicts_bit_identically() {
        let (cfg, model, _) = micro_saved();
        let loaded = load_edited("intact", |_| {}).expect("the saved model loads");
        assert_eq!(&loaded.model, model);
        let lib = cfg.library();
        let gate = cfg.design("C2").generate();
        let trace = simulate(&gate, &mut PhasedWorkload::w1(1), 80).expect("simulates");
        let render = |m: &AtlasModel| {
            serde_json::to_string(&m.predict(&gate, &lib, &trace)).expect("renders")
        };
        assert_eq!(render(&loaded.model), render(model));
    }

    #[test]
    fn split_feature_past_the_width_is_corrupt() {
        let edit = first_tree(vec![split(12, 1, 2), leaf(), leaf()]);
        assert_corrupt(load_edited("feature", edit), "splits on feature 12");
    }

    #[test]
    fn child_link_past_the_tree_is_corrupt() {
        let edit = first_tree(vec![split(0, 1, 9), leaf()]);
        assert_corrupt(load_edited("child", edit), "links to missing node 9");
    }

    #[test]
    fn cyclic_child_link_is_corrupt() {
        let edit = first_tree(vec![split(0, 1, 0), leaf()]);
        assert_corrupt(load_edited("cycle", edit), "reaches node 0 twice");
    }

    #[test]
    fn tree_deeper_than_the_cap_is_corrupt() {
        // A chain of splits one level past the cap: split k's left child
        // is a leaf, its right child split k + 1.
        let depth = atlas_gbdt::MAX_DEPTH as u64 + 1;
        let mut nodes: Vec<Value> = (0..depth).map(|k| split(0, depth + 1 + k, k + 1)).collect();
        nodes.extend((0..=depth).map(|_| leaf()));
        assert_corrupt(load_edited("deep", first_tree(nodes)), "deeper than");
    }

    #[test]
    fn head_width_mismatch_is_corrupt() {
        let edit = |head: &mut Value| *field_mut(head, "n_features") = Value::UInt(5);
        assert_corrupt(load_edited("width", edit), "head f_ct reads 5 features");
    }

    #[test]
    fn version_peek_reads_header_only() {
        let json = r#"{"header":{"format_version":7,"name":"x","config_fingerprint":1}}"#;
        assert_eq!(peek_format_version(json), Some(7));
        assert_eq!(peek_format_version("{}"), None);
        assert_eq!(peek_format_version("not json"), None);
    }
}
