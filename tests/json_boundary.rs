//! Fuzzes the JSON file boundary (`io::instance_from_json`,
//! `io::schedule_from_json`) with arbitrary text and with byte-level
//! mutations of valid documents: no input may panic, and every accepted
//! instance or schedule must survive its own writer unchanged.

use flowsched::core::{
    instance_from_json, instance_to_json, schedule_from_json, schedule_to_json, Assignment,
    Instance, InstanceBuilder, MachineId, ProcSet, Schedule, Task,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// JSON tokens, field names and edge-case numbers the fuzzer splices in
/// (whitespace comes from the arbitrary-character pieces).
const TOKENS: &str = r#"{ } [ ] , : " "machines" "tasks" "release" "ptime" "set" "assignments"
    0 1 2 3 -1 -0 2.5 1e3 1e400 -1e400 1e-400 1.0000000001 18446744073709551616
    9007199254740993 true false null \ \u00e9 \ud800 \x"#;

fn tokens() -> Vec<&'static str> {
    TOKENS.split_whitespace().collect()
}

/// The 3-machine instance and its feasible schedule the mutations start
/// from (the same shape as `core::io`'s own unit tests).
fn base() -> (Instance, Schedule) {
    let mut b = InstanceBuilder::new(3);
    b.push(Task::new(0.0, 2.0), ProcSet::interval(0, 1));
    b.push(Task::new(0.5, 1.0), ProcSet::singleton(2));
    let inst = b.build().unwrap();
    let s = Schedule::new(vec![
        Assignment::new(MachineId(0), 0.0),
        Assignment::new(MachineId(2), 0.5),
    ]);
    (inst, s)
}

/// An ASCII character for even `raw`, any code point for odd.
fn arbitrary_char(raw: u32) -> char {
    if raw.is_multiple_of(2) {
        char::from((raw >> 1) as u8 & 0x7f)
    } else {
        char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}')
    }
}

/// One fuzz string: each `(pick, raw)` piece is a token, or one
/// [`arbitrary_char`].
fn fuzz_string(pieces: &[(usize, u32)]) -> String {
    let tokens = tokens();
    let mut out = String::new();
    for &(pick, raw) in pieces {
        match tokens.get(pick) {
            Some(t) => out.push_str(t),
            None => out.push(arbitrary_char(raw)),
        }
    }
    out
}

/// Applies `(op, at, raw)` edits to a valid document at char `at` (mod
/// length): replace, insert or delete one character, splice in a token,
/// or (most often) swap the number around `at` for a numeric token.
/// Edits land on char boundaries so the result stays a `&str`.
fn mutate(doc: &str, edits: &[(u32, usize, u32)]) -> String {
    let tokens = tokens();
    let numbers: Vec<&str> = tokens
        .iter()
        .copied()
        .filter(|t| t.starts_with(|c: char| c == '-' || c.is_ascii_digit()))
        .collect();
    let in_number = |c: char| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-');
    let mut chars: Vec<char> = doc.chars().collect();
    for &(op, at, raw) in edits {
        let at = if chars.is_empty() {
            0
        } else {
            at % chars.len()
        };
        let c = arbitrary_char(raw);
        match op % 6 {
            0 if at < chars.len() => chars[at] = c,
            1 => chars.insert(at, c),
            2 if at < chars.len() => {
                chars.remove(at);
            }
            3 => {
                let token = tokens[raw as usize % tokens.len()];
                chars.splice(at..at, token.chars());
            }
            _ => {
                // The next number at or after `at`, if any.
                let Some(lo) = (at..chars.len()).find(|&i| chars[i].is_ascii_digit()) else {
                    continue;
                };
                let lo = (0..lo)
                    .rev()
                    .take_while(|&i| in_number(chars[i]))
                    .last()
                    .unwrap_or(lo);
                let hi = (lo..chars.len())
                    .find(|&i| !in_number(chars[i]))
                    .unwrap_or(chars.len());
                let number = numbers[raw as usize % numbers.len()];
                chars.splice(lo..hi, number.chars());
            }
        }
    }
    chars.into_iter().collect()
}

/// The two boundary contracts on one input text.
fn check(text: &str, inst: &Instance) -> Result<(), TestCaseError> {
    if let Ok(parsed) = instance_from_json(text) {
        let printed = instance_to_json(&parsed);
        let back = instance_from_json(&printed)
            .unwrap_or_else(|e| panic!("`{text}` parsed, but its form `{printed}` did not: {e}"));
        prop_assert_eq!(back, parsed, "`{}` → `{}` was lossy", text, printed);
    }
    if let Ok(parsed) = schedule_from_json(text, inst) {
        let printed = schedule_to_json(&parsed);
        let back = schedule_from_json(&printed, inst)
            .unwrap_or_else(|e| panic!("`{text}` parsed, but its form `{printed}` did not: {e}"));
        prop_assert_eq!(back, parsed, "`{}` → `{}` was lossy", text, printed);
    }
    Ok(())
}

proptest! {
    // Each parse costs microseconds; most inputs fail early, so many
    // cases are needed to reach the deeper accept paths.
    #![proptest_config(ProptestConfig::with_cases(8192))]

    /// Arbitrary text built from JSON tokens and arbitrary characters.
    #[test]
    fn arbitrary_text_never_panics_and_accepted_documents_round_trip(
        pieces in prop::collection::vec((0usize..48, any::<u32>()), 0..24),
    ) {
        let (inst, _) = base();
        check(&fuzz_string(&pieces), &inst)?;
    }

    /// Valid instance and schedule documents (compact and pretty) with
    /// a few byte-level edits.
    #[test]
    fn mutated_documents_never_panic_and_accepted_documents_round_trip(
        which in 0usize..4,
        edits in prop::collection::vec((any::<u32>(), 0usize..4096, any::<u32>()), 1..4),
    ) {
        let (inst, sched) = base();
        let doc = match which {
            0 => instance_to_json(&inst),
            1 => instance_to_json(&inst).split_whitespace().collect(),
            2 => schedule_to_json(&sched),
            _ => schedule_to_json(&sched).split_whitespace().collect(),
        };
        check(&mutate(&doc, &edits), &inst)?;
    }
}
