//! Differential check of the one-pass request decode against the tree
//! path: on a deterministic mutational corpus, `protocol::decode_request`
//! (which decodes `scenarios` flat, without a tree) must agree with
//! `json::parse` + `protocol::parse_request` + `parse_scenarios` on
//! acceptance, on every error — JSON errors down to the detail and byte
//! offset — on the rest of the body, and on the scenarios themselves, bit
//! for bit. Every decoded list is also bound to one fixed model the way
//! the server binds it and through `CompiledModel::bind_scenarios`; both
//! sweeps must evaluate to the same bits or the same `ModelError`.

use std::sync::Arc;

use hmdiv_core::extrapolate::{Change, Scenario};
use hmdiv_core::{ClassParams, CompiledModel, CompiledProfile, DemandProfile, ModelParams};
use hmdiv_prob::Probability;
use hmdiv_serve::{json, protocol, Json, ServeError};
use rand::Rng as _;

/// Hand-written seeds covering every op, duplicate keys, extra and nested
/// ignored members, escaped names, an empty batch, empty scenarios,
/// out-of-range and boundary probabilities, and the depth limit.
fn seeds() -> Vec<String> {
    let mut seeds: Vec<String> = [
        r#"{"id":1,"verb":"scenarios","model":"m0","profile":{"easy":0.9,"difficult":0.1},"scenarios":[[{"op":"improve_machine","class":"difficult","factor":10}],[{"op":"improve_machine_everywhere","factor":2}],[{"op":"set_machine_failure","class":"easy","p_mf":0.01}],[{"op":"set_reader","class":"easy","p_hf_given_ms":0.1,"p_hf_given_mf":0.2}],[{"op":"scale_reader_everywhere","factor":1.5}]]}"#,
        r#"{"verb":"scenarios","scenarios":[[{"op":"improve_machine","op":"warp","class":"a","class":5,"factor":2,"factor":"x"}]],"scenarios":[]}"#,
        r#"{"verb":"scenarios","scenarios":[[{"note":{"deep":[1,[2,{"x":null}],"s"]},"op":"scale_reader_everywhere","factor":0.5,"flag":true}]],"extra":{"a":[1,2]}}"#,
        r#"{"verb":"scenarios","scenarios":[[{"op":"improve_machine","class":"difficult \"q\" \\ 😀 é","factor":1e1}]]}"#,
        r#"{"verb":"scenarios","scenarios":[[{"op":"set_machine_failure","class":"\u0065asy","p_mf":0.5},{"\u006fp":"improve_machine","class":"diff\u0069cult","factor":2}]]}"#,
        r#"{"verb":"scenarios","scenarios":[]}"#,
        r#"{"verb":"scenarios","scenarios":[[],[]]}"#,
        r#"{"verb":"scenarios","scenarios":[[{"op":"set_machine_failure","class":"a","p_mf":1.0000001}],[{"op":"set_reader","class":"a","p_hf_given_ms":-0,"p_hf_given_mf":-1e-300}]]}"#,
        r#"{"verb":"scenarios","scenarios":[[{"op":"set_machine_failure","class":"a","p_mf":0},{"op":"set_machine_failure","class":"b","p_mf":1},{"op":"set_reader","class":"c","p_hf_given_ms":-0.0,"p_hf_given_mf":1e0}]]}"#,
        r#"{"verb":"scenarios","scenarios":[[{"op":"improve_machine_everywhere","factor":-0},{"op":"scale_reader_everywhere","factor":1E-2},{"op":"improve_machine_everywhere","factor":123456789012345678901234567890},{"op":"scale_reader_everywhere","factor":5e-324}]]}"#,
        r#"{"verb":"evaluate","deadline_ms":5,"trace_id":"00000000000000ff","scenarios":[[{"op":"improve_machine_everywhere","factor":3}]]}"#,
        r#"{ "scenarios" : [ [ { "op" : "improve_machine_everywhere" , "factor" : 3 } ] ] , "verb" : "scenarios" , "id" : [ "x" ] }"#,
        r#"{"verb":"scenarios","scenarios":[{"op":"improve_machine_everywhere","factor":3}]}"#,
        r#"{"verb":"scenarios","scenarios":[[[{"op":"improve_machine_everywhere","factor":3}]]]}"#,
        r#"{"verb":"scenarios","scenarios":{"op":"scale_reader_everywhere","factor":2}}"#,
        r#"{"verb":"scenarios","scenarios":[[{"op":"improve_machine_everywhere","factor":null}]]}"#,
        r#"[{"verb":"scenarios","scenarios":[[]]}]"#,
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    // Ignored members nested right at, and just past, the depth limit: a
    // change's member values sit at depth 4, so 61 arrays reach depth 64.
    for nest in [61, 62] {
        seeds.push(format!(
            r#"{{"verb":"scenarios","scenarios":[[{{"op":"improve_machine_everywhere","factor":2,"note":{}{}}}]]}}"#,
            "[".repeat(nest),
            "]".repeat(nest)
        ));
    }
    seeds
}

/// Fragments spliced into lines by the mutator: structure, literals,
/// numbers inside and outside the grammar, keys and ops, escapes.
#[rustfmt::skip]
const TOKENS: [&str; 40] = [
    "\"", "\\", "{", "}", "[", "]", ",", ":", " ", "0", "-", ".", "e",
    "01", "1.", "-.5", "1e999", "1e-400", "1.5", "2", "-0.5",
    "null", "true", "[[]]", "{\"x\":1}", "[{}]", "\"é\"", "\\u0041", "\\ud83d",
    "\"op\"", "\"class\"", "\"factor\"", "\"p_mf\"", "\"p_hf_given_ms\"", "\"scenarios\"",
    "\"improve_machine\"", "\"improve_machine_everywhere\"", "\"set_machine_failure\"",
    "\"set_reader\"", "\"scale_reader_everywhere\"",
];

/// One to three random edits: delete a short range, splice a token,
/// overwrite a byte, or copy a slice elsewhere. `None` when the result is
/// not UTF-8 (the decoders take `&str`).
fn mutate(line: &str, rng: &mut impl rand::Rng) -> Option<String> {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4_usize) {
        let at = rng.gen_range(0..=bytes.len());
        match rng.gen_range(0..4_u32) {
            0 if at < bytes.len() => {
                let end = (at + rng.gen_range(1..4_usize)).min(bytes.len());
                bytes.drain(at..end);
            }
            1 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                bytes.splice(at..at, token.bytes());
            }
            2 if at < bytes.len() => bytes[at] = rng.gen_range(0x20..0x7f_u8),
            _ => {
                let from = rng.gen_range(0..=bytes.len());
                let len = rng.gen_range(0..=24_usize).min(bytes.len() - from);
                let copy = bytes[from..from + len].to_vec();
                bytes.splice(at..at, copy);
            }
        }
    }
    String::from_utf8(bytes).ok()
}

/// A change's identity with every float as its bit pattern.
fn change_bits(change: &Change) -> (u8, Option<&str>, Vec<u64>) {
    match change {
        Change::ImproveMachine { class, factor } => (0, Some(class.name()), vec![factor.to_bits()]),
        Change::ImproveMachineEverywhere { factor } => (1, None, vec![factor.to_bits()]),
        Change::SetMachineFailure { class, p_mf } => {
            (2, Some(class.name()), vec![p_mf.value().to_bits()])
        }
        Change::SetReader {
            class,
            p_hf_given_ms,
            p_hf_given_mf,
        } => (
            3,
            Some(class.name()),
            vec![
                p_hf_given_ms.value().to_bits(),
                p_hf_given_mf.value().to_bits(),
            ],
        ),
        Change::ScaleReaderEverywhere { factor } => (4, None, vec![factor.to_bits()]),
        other => panic!("no wire op produces {other:?}"),
    }
}

fn assert_bits_eq(tree: &[Scenario], typed: &[Scenario], line: &str) {
    assert_eq!(tree.len(), typed.len(), "{line}");
    for (a, b) in tree.iter().zip(typed) {
        let a_bits: Vec<_> = a.changes().iter().map(change_bits).collect();
        let b_bits: Vec<_> = b.changes().iter().map(change_bits).collect();
        assert_eq!(a_bits, b_bits, "{line}");
        assert_eq!(a.adaptation(), b.adaptation(), "{line}");
    }
}

/// The model every decoded list is bound to: the seeds' `easy`,
/// `difficult` and `a`, so mutants mix resolvable and unknown classes.
fn fixed_model() -> (Arc<CompiledModel>, CompiledProfile) {
    let p = |v: f64| Probability::new(v).expect("in [0, 1]");
    let mut params = ModelParams::builder();
    let mut profile = DemandProfile::builder();
    for (i, name) in ["easy", "difficult", "a"].into_iter().enumerate() {
        let f = i as f64 / 4.0;
        params = params.class(
            name,
            ClassParams::new(p(0.07 + f), p(0.14 + f), p(0.18 + f)),
        );
        profile = profile.class(name, 1.0 + f);
    }
    let model = hmdiv_core::SequentialModel::new(params.build().expect("three classes"));
    let compiled = Arc::clone(model.compiled());
    let profile = profile.build().expect("positive weights");
    let bound = compiled
        .bind_profile(&profile)
        .expect("the model's classes");
    (compiled, bound)
}

/// Binds a typed-path decode the server's way (the flat decode) and
/// through `bind_scenarios` over the scenarios it yields; asserts both
/// sweeps, and the in-process evaluation, agree bit for bit or on the
/// error.
fn assert_binds_agree(request: &protocol::Request, scenarios: &[Scenario], line: &str) {
    let (model, profile) = fixed_model();
    let flat = request
        .clone()
        .bind_scenarios(&model)
        .expect("a typed decode binds");
    let via_list = model.bind_scenarios(scenarios);
    let bits = |r: Result<Vec<Probability>, hmdiv_core::ModelError>| {
        r.map(|v| v.iter().map(|p| p.value().to_bits()).collect::<Vec<u64>>())
    };
    let served = bits(model.evaluate_bound_scenarios(&flat, &profile, 1));
    assert_eq!(
        served,
        bits(model.evaluate_bound_scenarios(&via_list, &profile, 1)),
        "{line}"
    );
    assert_eq!(
        served,
        bits(model.evaluate_scenarios(scenarios, &profile)),
        "{line}"
    );
}

/// What happened to one line, for the corpus-coverage check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Not valid JSON: both paths report the same `JsonError`.
    Syntax,
    /// Valid JSON but a bad envelope.
    Envelope,
    /// Scenarios decoded on the typed path.
    Typed,
    /// The typed path declined; the tree path produced a scenario error.
    ShapeError,
    /// No `scenarios` member: both paths report it missing.
    NoScenarios,
}

/// Runs both paths on `line` and asserts they agree.
fn check(line: &str) -> Verdict {
    let typed = protocol::decode_request(line);
    let env = match json::parse(line) {
        Err(e) => {
            let expected = ServeError::Parse {
                detail: e.to_string(),
            };
            assert_eq!(typed.as_ref().err(), Some(&expected), "{line}");
            return Verdict::Syntax;
        }
        Ok(_) => protocol::parse_request(line),
    };
    let (env, mut request) = match (env, typed) {
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{line}");
            return Verdict::Envelope;
        }
        (Ok(env), Ok(request)) => (env, request),
        (a, b) => panic!("{line}: tree {a:?} vs typed {b:?}"),
    };
    // The body is the tree minus the member the typed path consumed:
    // the first `scenarios`, as `Json::get` would find it.
    let mut expected = env.body.as_obj().unwrap_or_default().to_vec();
    let typed_path = request.scenarios.is_some();
    if typed_path {
        let first = expected
            .iter()
            .position(|(k, _)| k == "scenarios")
            .expect("a typed decode comes from a `scenarios` member");
        expected.remove(first);
    }
    assert_eq!(request.envelope.body, Json::Obj(expected), "{line}");
    assert_eq!(request.envelope.id, env.id, "{line}");
    assert_eq!(request.envelope.verb, env.verb, "{line}");
    assert_eq!(request.envelope.deadline_ms, env.deadline_ms, "{line}");
    assert_eq!(request.envelope.trace_id, env.trace_id, "{line}");

    let tree = protocol::parse_scenarios(&env.body);
    let decoded = request.clone();
    match (tree, request.take_scenarios()) {
        (Ok(a), Ok(b)) => {
            assert_bits_eq(&a, &b, line);
            if typed_path {
                assert_binds_agree(&decoded, &b, line);
                Verdict::Typed
            } else {
                panic!("{line}: accepted scenarios the typed path declined")
            }
        }
        (Err(a), Err(b)) => {
            assert_eq!(a, b, "{line}");
            assert!(!typed_path, "{line}");
            if env.body.get("scenarios").is_some() {
                Verdict::ShapeError
            } else {
                Verdict::NoScenarios
            }
        }
        (a, b) => panic!("{line}: tree {a:?} vs typed {b:?}"),
    }
}

#[test]
fn seeds_agree_with_the_tree_path() {
    for seed in seeds() {
        check(&seed);
    }
}

#[test]
fn typed_decode_matches_the_tree_path_on_a_mutational_corpus() {
    const MUTANTS: usize = 100_000;
    const POOL: usize = 512;
    let mut rng = hmdiv_prob::par::stream_rng(0x5ce7_a105, 13);
    let seeds = seeds();
    let mut pool = seeds.clone();
    let mut counts = [0_usize; 5];
    let mut checked = 0;
    while checked < MUTANTS {
        // Half the parents are seeds, half earlier mutants, so the corpus
        // reaches deeper than one edit from a seed without drifting away
        // from `scenarios` requests altogether.
        let parent = if rng.gen_bool(0.5) {
            &seeds[rng.gen_range(0..seeds.len())]
        } else {
            &pool[rng.gen_range(0..pool.len())]
        };
        let Some(line) = mutate(parent, &mut rng) else {
            continue;
        };
        let verdict = check(&line);
        checked += 1;
        counts[verdict as usize] += 1;
        // Keep decodable mutants, and some shape faults, as later parents.
        let keep = match verdict {
            Verdict::Typed => true,
            Verdict::ShapeError => rng.gen_bool(0.25),
            _ => false,
        };
        if keep {
            if pool.len() < POOL {
                pool.push(line);
            } else {
                let slot = rng.gen_range(0..POOL);
                pool[slot] = line;
            }
        }
    }
    let [syntax, envelope, typed, shape, _] = counts;
    for (name, n) in [
        ("syntax", syntax),
        ("envelope", envelope),
        ("typed", typed),
        ("shape", shape),
    ] {
        assert!(
            n >= MUTANTS / 50,
            "corpus reached only {n} {name} verdicts: {counts:?}"
        );
    }
}
