//! Seeded inputs: models, demand profiles and scenario sweeps, plus
//! their JSON-lines wire bodies. The same seed always yields the same
//! inputs; the programs under test only ever see what is generated here.

use hmdiv_core::extrapolate::Scenario;
use hmdiv_core::{ClassId, ClassParams, DemandProfile, ModelParams, SequentialModel};
use hmdiv_prob::Probability;
use hmdiv_serve::json::Json;

/// SplitMix64: small, seedable, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that inputs
    /// drawn for different purposes do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One class's parameter triple: `(PMf, PHf|Ms, PHf|Mf)`.
pub type Triple = [f64; 3];

/// A model as generated: class names and triples, in class order.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    pub classes: Vec<(String, Triple)>,
}

/// Zero-padded class names `c000…`, so name order is index order.
pub fn class_names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("c{i:03}")).collect()
}

fn prob(v: f64) -> Probability {
    Probability::new(v).expect("generated probabilities lie in [0, 1]")
}

impl ModelSpec {
    /// A seeded model over `names`: every class is coherent
    /// (`PHf|Mf ≥ PHf|Ms`), so the admission gate accepts it.
    pub fn random(rng: &mut Rng, names: &[String]) -> ModelSpec {
        let classes = names
            .iter()
            .map(|name| {
                let p_mf = rng.range(0.02, 0.6);
                let ms = rng.range(0.01, 0.45);
                let mf = rng.range(ms, (ms + 0.5).min(0.99));
                (name.clone(), [p_mf, ms, mf])
            })
            .collect();
        ModelSpec { classes }
    }

    pub fn params(&self) -> ModelParams {
        let mut table = ModelParams::builder();
        for (name, [p_mf, ms, mf]) in &self.classes {
            table = table.class(
                name.as_str(),
                ClassParams::new(prob(*p_mf), prob(*ms), prob(*mf)),
            );
        }
        table.build().expect("generated class names are distinct")
    }

    pub fn model(&self) -> SequentialModel {
        SequentialModel::new(self.params())
    }

    /// The `load` verb's body members after the envelope:
    /// `"verb":"load","classes":{…}}` (newline not included).
    pub fn load_body(&self) -> String {
        let classes = self
            .classes
            .iter()
            .map(|(name, [p_mf, ms, mf])| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("p_mf".to_owned(), Json::Num(*p_mf)),
                        ("p_hf_given_ms".to_owned(), Json::Num(*ms)),
                        ("p_hf_given_mf".to_owned(), Json::Num(*mf)),
                    ]),
                )
            })
            .collect();
        body_tail(vec![
            ("verb".to_owned(), Json::str("load")),
            ("classes".to_owned(), Json::Obj(classes)),
        ])
    }
}

/// A demand profile as generated: weights in wire order.
#[derive(Debug, Clone)]
pub struct ProfileSpec {
    pub weights: Vec<(String, f64)>,
}

impl ProfileSpec {
    /// Seeded positive weights over `names` (normalised by the model).
    pub fn random(rng: &mut Rng, names: &[String]) -> ProfileSpec {
        ProfileSpec {
            weights: names
                .iter()
                .map(|n| (n.clone(), rng.range(0.05, 1.0)))
                .collect(),
        }
    }

    pub fn profile(&self) -> DemandProfile {
        DemandProfile::from_weights(self.weights.iter().map(|(n, w)| (ClassId::new(n), *w)))
            .expect("generated profiles are valid")
    }

    pub fn json(&self) -> Json {
        Json::Obj(
            self.weights
                .iter()
                .map(|(n, w)| (n.clone(), Json::Num(*w)))
                .collect(),
        )
    }
}

/// `count` single-class `improve_machine` scenarios over `names`.
pub fn scenario_sweep(rng: &mut Rng, names: &[String], count: usize) -> Vec<(String, f64)> {
    (0..count)
        .map(|_| (names[rng.below(names.len())].clone(), rng.range(1.5, 20.0)))
        .collect()
}

/// The in-process scenarios for a sweep.
pub fn scenarios(sweep: &[(String, f64)]) -> Vec<Scenario> {
    sweep
        .iter()
        .map(|(class, factor)| Scenario::new().improve_machine(ClassId::new(class), *factor))
        .collect()
}

/// The sweep as the `scenarios` member's JSON.
pub fn scenarios_json(sweep: &[(String, f64)]) -> Json {
    Json::Arr(
        sweep
            .iter()
            .map(|(class, factor)| {
                Json::Arr(vec![Json::Obj(vec![
                    ("op".to_owned(), Json::str("improve_machine")),
                    ("class".to_owned(), Json::str(class.as_str())),
                    ("factor".to_owned(), Json::Num(*factor)),
                ])])
            })
            .collect(),
    )
}

/// Renders request members as the tail of a line whose envelope (`id`,
/// `trace_id`) the load generator prefixes: `"verb":…,…}`.
pub fn body_tail(members: Vec<(String, Json)>) -> String {
    let mut text = String::new();
    Json::Obj(members).write(&mut text);
    // Drop the opening brace; the envelope supplies it.
    text.split_off(1)
}

/// A complete request line: envelope prefix, body tail, newline.
pub fn request_line(id: u64, body_tail: &str) -> String {
    format!("{{\"id\":{id},\"trace_id\":\"{id:016x}\",{body_tail}\n")
}
