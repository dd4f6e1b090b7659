//! Model registry: checkpoints, live model instances, and a shared LUT
//! cache with LRU eviction.
//!
//! Each registered model is built **once** from its factory, its parameters
//! are captured as canonical checkpoint bytes (the `appmult-nn` `APMT`
//! format), and the live instance is shared behind a `Mutex` — the layers'
//! forward pass mutates internal GEMM caches, so inference needs exclusive
//! access per batch. A worker panic inside `forward` marks the entry
//! *poisoned*; the next batch transparently rebuilds the instance from
//! `factory + checkpoint` before running, so one bad batch cannot wedge a
//! model forever.
//!
//! Product/gradient LUT pairs are expensive to build (exhaustive `2^B x 2^B`
//! simulation) and often shared by many models, so the registry also hosts a
//! keyed [`LutCache`] with LRU eviction and hit/miss/eviction counters on
//! the global `appmult-obs` sink.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use appmult_mult::MultiplierLut;
use appmult_nn::layers::Sequential;
use appmult_nn::serialize::{load_params, save_params};
use appmult_nn::{Module, Tensor};
use appmult_retrain::GradientLut;

/// Builds a fresh, uninitialized instance of a model architecture. Called
/// once at [`Registry::load`] and again on the poisoned-model rebuild path.
///
/// The factory receives a [`LutHandle`] onto the registry's shared LUT
/// cache, so models that need product/gradient LUT pairs fetch them
/// read-through: built at [`Registry::load`], off the dispatch path, and
/// warm again on the poisoned rebuild. Factories that build no LUTs ignore
/// the argument (`Arc::new(|_| ...)`).
pub type ModelFactory = Arc<dyn Fn(&LutHandle<'_>) -> Sequential + Send + Sync>;

/// Everything needed to register a model.
pub struct ModelSpec {
    /// Registry key (also the name requests address).
    pub name: String,
    /// Per-sample input shape (without the batch dimension); admission
    /// control validates every request against it.
    pub input_shape: Vec<usize>,
    /// Architecture builder; its parameters become the checkpoint.
    pub factory: ModelFactory,
}

impl ModelSpec {
    /// A spec for `name`, whose requests carry `input_shape` samples.
    pub fn new(name: impl Into<String>, input_shape: Vec<usize>, factory: ModelFactory) -> Self {
        Self {
            name: name.into(),
            input_shape,
            factory,
        }
    }
}

/// Why a batch could not be run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForwardError {
    /// No model with that name is registered.
    Unloaded(String),
    /// The model panicked on this batch. The entry is marked poisoned and
    /// will be rebuilt from its checkpoint before the next batch.
    Panicked,
}

struct ModelEntry {
    input_shape: Vec<usize>,
    factory: ModelFactory,
    /// Canonical `APMT` parameter bytes captured at load time.
    checkpoint: Vec<u8>,
    model: Mutex<Sequential>,
    /// Set when `forward` panicked; cleared by the rebuild path.
    poisoned: AtomicBool,
}

/// Shared LUT store with LRU eviction (see the module docs).
pub struct LutCache {
    capacity: usize,
    clock: u64,
    entries: Vec<LutEntry>,
}

struct LutEntry {
    key: String,
    lut: Arc<MultiplierLut>,
    grads: Arc<GradientLut>,
    last_use: u64,
}

impl LutCache {
    /// A cache keeping at most `capacity` LUT pairs (clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            clock: 0,
            entries: Vec::new(),
        }
    }

    /// Returns the pair under `key`, building (and possibly evicting the
    /// least-recently-used pair) on a miss. Hits, misses, and evictions are
    /// counted on the global obs sink (`serve.lut.*`).
    pub fn get_or_build<F>(&mut self, key: &str, build: F) -> (Arc<MultiplierLut>, Arc<GradientLut>)
    where
        F: FnOnce() -> (MultiplierLut, GradientLut),
    {
        let obs = appmult_obs::global();
        self.clock += 1;
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.last_use = self.clock;
            obs.counter_add("serve.lut.hits", 1);
            return (Arc::clone(&e.lut), Arc::clone(&e.grads));
        }
        obs.counter_add("serve.lut.misses", 1);
        if self.entries.len() >= self.capacity {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("non-empty at capacity");
            let evicted = self.entries.swap_remove(lru);
            obs.counter_add("serve.lut.evictions", 1);
            obs.event(
                "serve.lut.evict",
                &[("key", evicted.key.as_str().into()), ("for", key.into())],
            );
        }
        let (lut, grads) = build();
        let (lut, grads) = (Arc::new(lut), Arc::new(grads));
        self.entries.push(LutEntry {
            key: key.to_string(),
            lut: Arc::clone(&lut),
            grads: Arc::clone(&grads),
            last_use: self.clock,
        });
        (lut, grads)
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Read-through view onto the registry's shared [`LutCache`], handed to
/// [`ModelFactory`] closures so every build of every model fetches LUT
/// pairs from one cache — without the factory holding an `Arc<Registry>`
/// (which would cycle: the registry owns the factory).
pub struct LutHandle<'a> {
    luts: &'a Mutex<LutCache>,
}

impl LutHandle<'_> {
    /// Returns the pair under `key`, building on a miss (see
    /// [`LutCache::get_or_build`]).
    pub fn get<F>(&self, key: &str, build: F) -> (Arc<MultiplierLut>, Arc<GradientLut>)
    where
        F: FnOnce() -> (MultiplierLut, GradientLut),
    {
        self.luts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get_or_build(key, build)
    }
}

/// The model registry (see the module docs). Cheap to share: wrap in an
/// [`Arc`] and hand clones to the engine's workers.
pub struct Registry {
    models: Mutex<HashMap<String, Arc<ModelEntry>>>,
    luts: Mutex<LutCache>,
}

impl Registry {
    /// An empty registry whose LUT cache keeps `lut_capacity` pairs.
    pub fn new(lut_capacity: usize) -> Self {
        Self {
            models: Mutex::new(HashMap::new()),
            luts: Mutex::new(LutCache::new(lut_capacity)),
        }
    }

    /// Builds the model once, captures its parameters as the checkpoint,
    /// and registers it (replacing any previous model of the same name).
    ///
    /// Whatever LUTs the factory fetches through its [`LutHandle`] are
    /// built here, at load time, so a model's first batch never pays a
    /// LUT build inside the dispatch path.
    ///
    /// # Errors
    ///
    /// Propagates serialization errors from the checkpoint capture.
    pub fn load(&self, spec: ModelSpec) -> std::io::Result<()> {
        let mut model = (spec.factory)(&self.lut_handle());
        let mut checkpoint = Vec::new();
        save_params(&mut model, &mut checkpoint)?;
        let entry = Arc::new(ModelEntry {
            input_shape: spec.input_shape,
            factory: spec.factory,
            checkpoint,
            model: Mutex::new(model),
            poisoned: AtomicBool::new(false),
        });
        self.lock_models().insert(spec.name.clone(), entry);
        appmult_obs::global().event("serve.model.load", &[("name", spec.name.into())]);
        Ok(())
    }

    /// The per-sample input shape a registered model expects.
    pub fn input_shape(&self, name: &str) -> Option<Vec<usize>> {
        self.lock_models().get(name).map(|e| e.input_shape.clone())
    }

    /// A read-through handle onto the shared LUT cache — what factories
    /// receive.
    fn lut_handle(&self) -> LutHandle<'_> {
        LutHandle { luts: &self.luts }
    }

    /// Runs one coalesced batch through the named model in eval mode,
    /// healing a previously poisoned instance first.
    ///
    /// A panic inside the model is caught here: the entry is marked
    /// poisoned (rebuilt from `factory + checkpoint` on the next call) and
    /// [`ForwardError::Panicked`] is returned so the engine can decide
    /// requeue-or-reject per job.
    ///
    /// # Errors
    ///
    /// [`ForwardError::Unloaded`] if the name is not registered,
    /// [`ForwardError::Panicked`] if the model panicked on this batch.
    pub fn forward_batch(&self, name: &str, batch: &Tensor) -> Result<Tensor, ForwardError> {
        let entry = self
            .lock_models()
            .get(name)
            .cloned()
            .ok_or_else(|| ForwardError::Unloaded(name.to_string()))?;
        // The panic below is caught before unwinding past the guard, so the
        // mutex itself does not poison; `into_inner` is belt-and-braces.
        let mut guard = entry.model.lock().unwrap_or_else(PoisonError::into_inner);
        if entry.poisoned.swap(false, Ordering::SeqCst) {
            let mut fresh = (entry.factory)(&self.lut_handle());
            load_params(&mut fresh, entry.checkpoint.as_slice())
                .expect("checkpoint captured from this same architecture");
            *guard = fresh;
            let obs = appmult_obs::global();
            obs.counter_add("serve.model.rebuilds", 1);
            obs.event("serve.model.rebuild", &[("name", name.into())]);
        }
        match catch_unwind(AssertUnwindSafe(|| guard.forward(batch, false))) {
            Ok(out) => Ok(out),
            Err(_) => {
                entry.poisoned.store(true, Ordering::SeqCst);
                Err(ForwardError::Panicked)
            }
        }
    }

    fn lock_models(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<ModelEntry>>> {
        self.models.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use appmult_nn::layers::{Linear, Relu};
    use appmult_nn::Module;

    /// Serializes tests that install a recording global obs sink — the
    /// sink is process-wide, so concurrent recorders would mix counters.
    fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tiny_spec(name: &str, seed: u64) -> ModelSpec {
        ModelSpec::new(
            name,
            vec![4],
            Arc::new(move |_| {
                Sequential::new()
                    .push(Linear::new(4, 3, seed))
                    .push(Relu::new())
            }),
        )
    }

    /// A module that panics on demand — drives the poisoned-model path.
    struct PanicSwitch {
        armed: Arc<AtomicBool>,
    }
    impl Module for PanicSwitch {
        fn forward(&mut self, input: &Tensor, _train: bool) -> Tensor {
            assert!(!self.armed.swap(false, Ordering::SeqCst), "chaos");
            input.clone()
        }
        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            grad_out.clone()
        }
        fn visit_params(&mut self, _visitor: &mut dyn FnMut(&mut appmult_nn::Parameter)) {}
    }

    #[test]
    fn load_and_run_round_trip() {
        let reg = Registry::new(4);
        reg.load(tiny_spec("m", 7)).unwrap();
        assert_eq!(reg.input_shape("m"), Some(vec![4]));
        assert_eq!(reg.input_shape("nope"), None);
        let batch = Tensor::from_vec(vec![0.1; 8], &[2, 4]);
        let out = reg.forward_batch("m", &batch).unwrap();
        assert_eq!(out.shape(), &[2, 3]);
        assert_eq!(
            reg.forward_batch("nope", &batch),
            Err(ForwardError::Unloaded("nope".to_string()))
        );
    }

    #[test]
    fn replacing_a_model_keeps_the_name_servable() {
        let reg = Registry::new(4);
        reg.load(tiny_spec("m", 1)).unwrap();
        reg.load(tiny_spec("m", 2)).unwrap();
        let batch = Tensor::from_vec(vec![0.5; 4], &[1, 4]);
        assert!(reg.forward_batch("m", &batch).is_ok());
    }

    #[test]
    fn panicked_model_is_rebuilt_with_original_parameters() {
        let armed = Arc::new(AtomicBool::new(false));
        let armed2 = Arc::clone(&armed);
        let reg = Registry::new(4);
        reg.load(ModelSpec::new(
            "p",
            vec![4],
            Arc::new(move |_| {
                Sequential::new()
                    .push(Linear::new(4, 4, 9))
                    .push(PanicSwitch {
                        armed: Arc::clone(&armed2),
                    })
            }),
        ))
        .unwrap();
        let batch = Tensor::from_vec(vec![1.0; 4], &[1, 4]);
        let healthy = reg.forward_batch("p", &batch).unwrap();

        armed.store(true, Ordering::SeqCst);
        assert_eq!(reg.forward_batch("p", &batch), Err(ForwardError::Panicked));
        // Next batch heals the entry and reproduces the original output:
        // the rebuild restored checkpointed parameters, not fresh ones.
        let after = reg.forward_batch("p", &batch).unwrap();
        assert_eq!(after, healthy);
    }

    #[test]
    fn factories_share_the_lut_cache() {
        use appmult_mult::{ExactMultiplier, Multiplier};
        let _guard = obs_lock();
        let obs = appmult_obs::ObsSink::recording();
        appmult_obs::set_global(&obs);
        let factory: ModelFactory = Arc::new(|luts: &LutHandle<'_>| {
            let (_lut, _grads) = luts.get("exact2", || {
                let lut = ExactMultiplier::new(2).to_lut();
                let grads =
                    GradientLut::build(&lut, appmult_retrain::GradientMode::difference_based(1));
                (lut, grads)
            });
            Sequential::new().push(Linear::new(4, 3, 5))
        });
        let reg = Registry::new(4);
        reg.load(ModelSpec::new("a", vec![4], Arc::clone(&factory)))
            .unwrap();
        reg.load(ModelSpec::new("b", vec![4], factory)).unwrap();
        appmult_obs::set_global(&appmult_obs::ObsSink::null());
        assert_eq!(
            obs.counter("serve.lut.misses"),
            1,
            "the first load built it"
        );
        assert_eq!(
            obs.counter("serve.lut.hits"),
            1,
            "the second load reused it"
        );
    }

    #[test]
    fn lut_cache_evicts_least_recently_used() {
        use appmult_mult::{ExactMultiplier, Multiplier};
        let _guard = obs_lock();
        let obs = appmult_obs::ObsSink::recording();
        appmult_obs::set_global(&obs);
        let mut cache = LutCache::new(2);
        let build = |bits: u32| {
            move || {
                let lut = ExactMultiplier::new(bits).to_lut();
                let grads =
                    GradientLut::build(&lut, appmult_retrain::GradientMode::difference_based(1));
                (lut, grads)
            }
        };
        let (a1, _) = cache.get_or_build("a", build(2));
        let _ = cache.get_or_build("b", build(3));
        let (a2, _) = cache.get_or_build("a", build(2)); // hit, refreshes "a"
        assert!(Arc::ptr_eq(&a1, &a2), "hit must return the same Arc");
        let _ = cache.get_or_build("c", build(4)); // evicts "b" (LRU)
        assert_eq!(cache.len(), 2);
        let (b2, _) = cache.get_or_build("b", build(3)); // rebuilt, evicts "a"
        assert_eq!(b2.bits(), 3);
        appmult_obs::set_global(&appmult_obs::ObsSink::null());
        assert_eq!(obs.counter("serve.lut.hits"), 1);
        assert_eq!(obs.counter("serve.lut.misses"), 4);
        assert_eq!(obs.counter("serve.lut.evictions"), 2);
    }
}
