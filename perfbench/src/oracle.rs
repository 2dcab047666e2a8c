//! The independent correctness oracle.
//!
//! A [`ServedView`] is what the service serves at one quiet instant: the
//! snapshot's relation and rules (read in process) plus `recommend` and
//! `discover` replies (read over the line protocol). [`check`] compares
//! it with the benchmark's own [`Model`] by brute force:
//!
//! * `relation` — the served relation equals the model, tuple by tuple;
//! * `rule_counts` — every served rule's counts match a recount over the
//!   model, and the rule meets α and β;
//! * `rule_completeness` — every single-antecedent data→annotation or
//!   annotation→annotation rule that pair counts say qualifies is served;
//! * `recommend` — every recommendation names an annotation the tuple
//!   lacks, cites a rule whose antecedent the tuple holds, and replies are
//!   in confidence order;
//! * `discover` — every reported co-occurrence count matches a recount.

use anno_service::Dataset;

use crate::client::Client;
use crate::model::{is_data, Model};

/// One served rule, by name, with its raw counts.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedRule {
    /// Antecedent names.
    pub lhs: Vec<String>,
    /// Consequent annotation name.
    pub rhs: String,
    /// Tuples holding `lhs ∪ {rhs}`.
    pub union_count: u64,
    /// Tuples holding `lhs`.
    pub lhs_count: u64,
    /// Live tuples.
    pub db_size: u64,
}

/// One `recommend` reply line.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The recommended annotation.
    pub name: String,
    /// The confidence the reply prints.
    pub confidence: f64,
    /// Antecedent names of the cited rule.
    pub lhs: Vec<String>,
}

/// One `discover` reply line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedPair {
    /// First name.
    pub a: String,
    /// Second name.
    pub b: String,
    /// Reported co-occurrence count.
    pub count: u64,
}

/// Everything the oracle compares against the model.
#[derive(Debug, Clone, Default)]
pub struct ServedView {
    /// Live tuples in id order, each with its sorted names.
    pub tuples: Vec<(u32, Vec<String>)>,
    /// The snapshot's valid rules.
    pub rules: Vec<ServedRule>,
    /// `recommend <ds> tuple <tid>` replies per probed tuple.
    pub recommendations: Vec<(u32, Vec<Recommendation>)>,
    /// The `discover <ds> top=64` reply.
    pub pairs: Vec<ServedPair>,
}

/// Read what dataset `ds` (registered as `name`) serves right now. The
/// caller guarantees no write is in flight, so the in-process snapshot
/// and the protocol replies describe the same instant.
pub fn capture(
    ds: &Dataset,
    client: &mut Client,
    name: &str,
    probe: &[u32],
) -> Result<ServedView, String> {
    let snap = ds.snapshot().map_err(|e| e.to_string())?;
    let vocab = snap.relation().vocab();
    let tuples = snap
        .relation()
        .iter()
        .map(|(tid, tuple)| {
            let mut names: Vec<String> = tuple
                .items()
                .iter()
                .map(|&i| vocab.name(i).to_string())
                .collect();
            names.sort_unstable();
            (tid.0, names)
        })
        .collect();
    let rules = snap
        .rules()
        .rules()
        .iter()
        .map(|r| ServedRule {
            lhs: r
                .lhs
                .items()
                .iter()
                .map(|&i| vocab.name(i).to_string())
                .collect(),
            rhs: vocab.name(r.rhs).to_string(),
            union_count: r.union_count,
            lhs_count: r.lhs_count,
            db_size: r.db_size,
        })
        .collect();
    let mut recommendations = Vec::with_capacity(probe.len());
    for &tid in probe {
        let reply = client
            .call(&format!("recommend {name} tuple {tid} top 10"), true)
            .map_err(|e| e.to_string())?;
        if !reply.ok() {
            return Err(format!("recommend {tid}: {}", reply.header));
        }
        let lines = reply
            .body
            .iter()
            .map(|l| parse_recommendation(l))
            .collect::<Result<Vec<_>, _>>()?;
        recommendations.push((tid, lines));
    }
    let reply = client
        .call(&format!("discover {name} top=64"), true)
        .map_err(|e| e.to_string())?;
    if !reply.ok() {
        return Err(format!("discover: {}", reply.header));
    }
    let pairs = reply
        .body
        .iter()
        .map(|l| parse_pair(l))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ServedView {
        tuples,
        rules,
        recommendations,
        pairs,
    })
}

/// `add NAME conf=0.9000 sup=0.4100 [28, 85 -> NAME (conf=…, sup=…)]`.
pub fn parse_recommendation(line: &str) -> Result<Recommendation, String> {
    let bad = || format!("malformed recommendation {line:?}");
    let rest = line.strip_prefix("add ").ok_or_else(bad)?;
    let (name, rest) = rest.split_once(' ').ok_or_else(bad)?;
    let conf = rest
        .strip_prefix("conf=")
        .and_then(|r| r.split_whitespace().next())
        .and_then(|c| c.parse::<f64>().ok())
        .ok_or_else(bad)?;
    let open = rest.find('[').ok_or_else(bad)?;
    let (lhs, _) = rest[open + 1..].split_once(" -> ").ok_or_else(bad)?;
    Ok(Recommendation {
        name: name.to_string(),
        confidence: conf,
        lhs: lhs.split(", ").map(str::to_string).collect(),
    })
}

/// `A ~ B count=N support=… lift=… …`.
pub fn parse_pair(line: &str) -> Result<ServedPair, String> {
    let bad = || format!("malformed discover line {line:?}");
    let mut toks = line.split_whitespace();
    let a = toks.next().ok_or_else(bad)?;
    if toks.next() != Some("~") {
        return Err(bad());
    }
    let b = toks.next().ok_or_else(bad)?;
    let count = toks
        .next()
        .and_then(|t| t.strip_prefix("count="))
        .and_then(|c| c.parse().ok())
        .ok_or_else(bad)?;
    Ok(ServedPair {
        a: a.to_string(),
        b: b.to_string(),
        count,
    })
}

/// Minimum support count: the least `c` with `c / n ≥ α`.
fn min_count(alpha: f64, n: u64) -> u64 {
    ((alpha * n as f64 - 1e-9).ceil().max(0.0) as u64).max(1)
}

fn meets(union: u64, lhs: u64, n: u64, alpha: f64, beta: f64) -> bool {
    union >= min_count(alpha, n) && lhs > 0 && union as f64 / lhs as f64 >= beta - 1e-12
}

/// Run every check; returns `(check, message)` per failure (at most a few
/// per check), empty when the view is correct.
pub fn check(
    view: &ServedView,
    model: &Model,
    alpha: f64,
    beta: f64,
) -> Vec<(&'static str, String)> {
    let mut failures = Vec::new();
    let mut fail = |check: &'static str, msg: String| {
        if failures.iter().filter(|(c, _)| *c == check).count() < 3 {
            failures.push((check, msg));
        }
    };
    let n = model.len() as u64;
    let postings = model.postings();
    let ids_of = |names: &[String]| -> Option<Vec<u32>> {
        names.iter().map(|name| model.id(name)).collect()
    };

    // relation
    if view.tuples.len() != model.len() {
        fail(
            "relation",
            format!(
                "{} live tuples served, model has {}",
                view.tuples.len(),
                model.len()
            ),
        );
    }
    for (tid, names) in &view.tuples {
        if (*tid as usize) >= model.len() || model.sorted_names(*tid) != *names {
            fail("relation", format!("tuple {tid} served as {names:?}"));
        }
    }

    // rule_counts
    for rule in &view.rules {
        let Some(lhs) = ids_of(&rule.lhs) else {
            fail(
                "rule_counts",
                format!("rule {rule:?} names an unknown item"),
            );
            continue;
        };
        let Some(rhs) = model.id(&rule.rhs) else {
            fail(
                "rule_counts",
                format!("rule {rule:?} names an unknown item"),
            );
            continue;
        };
        let mut union = lhs.clone();
        union.push(rhs);
        let want = (
            postings.count_all(&union, model.len()),
            postings.count_all(&lhs, model.len()),
            n,
        );
        let got = (rule.union_count, rule.lhs_count, rule.db_size);
        if got != want {
            fail(
                "rule_counts",
                format!(
                    "{:?} -> {}: served counts {got:?}, recount {want:?}",
                    rule.lhs, rule.rhs
                ),
            );
        } else if rule.lhs.is_empty()
            || is_data(&rule.rhs)
            || !meets(want.0, want.1, n, alpha, beta)
        {
            fail(
                "rule_counts",
                format!(
                    "{:?} -> {} does not qualify at α={alpha} β={beta}",
                    rule.lhs, rule.rhs
                ),
            );
        }
    }

    // rule_completeness
    let threshold = min_count(alpha, n);
    let frequent: Vec<(u32, u64)> = (0..model.name_count() as u32)
        .map(|id| (id, postings.count_all(&[id], model.len())))
        .filter(|&(_, c)| c >= threshold)
        .collect();
    for &(a, _) in frequent.iter().filter(|(id, _)| !is_data(model.name(*id))) {
        for &(x, count_x) in &frequent {
            if x == a {
                continue;
            }
            let union = postings.count_pair(x, a);
            if !meets(union, count_x, n, alpha, beta) {
                continue;
            }
            let (lhs, rhs) = (model.name(x), model.name(a));
            let served = view
                .rules
                .iter()
                .any(|r| r.rhs == rhs && r.lhs.len() == 1 && r.lhs[0] == lhs);
            if !served {
                fail(
                    "rule_completeness",
                    format!("{lhs} -> {rhs} qualifies (count {union}/{count_x}) but is not served"),
                );
            }
        }
    }

    // recommend
    for (tid, lines) in &view.recommendations {
        if (*tid as usize) >= model.len() {
            fail("recommend", format!("probe tuple {tid} out of range"));
            continue;
        }
        for line in lines {
            if is_data(&line.name) || model.has(*tid, &line.name) {
                fail(
                    "recommend",
                    format!("tuple {tid}: recommends {} it already holds", line.name),
                );
            }
            if let Some(missing) = line.lhs.iter().find(|item| !model.has(*tid, item)) {
                fail(
                    "recommend",
                    format!("tuple {tid}: cites a rule on {missing}, which it lacks"),
                );
            }
        }
        if lines.windows(2).any(|w| w[1].confidence > w[0].confidence) {
            fail(
                "recommend",
                format!("tuple {tid}: replies not in confidence order"),
            );
        }
    }

    // discover
    for pair in &view.pairs {
        let want = match (model.id(&pair.a), model.id(&pair.b)) {
            (Some(a), Some(b)) => postings.count_pair(a, b),
            _ => {
                fail("discover", format!("{pair:?} names an unknown item"));
                continue;
            }
        };
        if pair.count != want {
            fail(
                "discover",
                format!(
                    "{} ~ {}: count={} served, recount {want}",
                    pair.a, pair.b, pair.count
                ),
            );
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;

    use anno_service::queue::UpdateOp;
    use anno_service::{Service, ServiceConfig};
    use anno_store::{format_tuple, generate, GeneratorConfig};

    const ALPHA: f64 = 0.4;
    const BETA: f64 = 0.8;

    /// A small mined dataset served on loopback, its model and a correct
    /// captured view.
    fn served() -> (Model, ServedView) {
        let synthetic = generate(&GeneratorConfig::tiny(7));
        let rel = &synthetic.relation;
        let rows: Vec<String> = rel
            .iter()
            .map(|(_, t)| format_tuple(rel.vocab(), t))
            .collect();
        let mut model = Model::default();
        for row in &rows {
            model.insert_row(row);
        }
        let service = Arc::new(Service::new());
        let config = ServiceConfig {
            thresholds: anno_mine::Thresholds::new(ALPHA, BETA),
            ..ServiceConfig::default()
        };
        let ds = service.create("t", config).unwrap();
        ds.enqueue(UpdateOp::InsertRows(rows)).unwrap();
        ds.mine().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = Arc::clone(&service);
        std::thread::spawn(move || anno_service::server::serve_listener(server, listener));
        let mut client = Client::connect(addr).unwrap();
        let probe: Vec<u32> = (0..model.len() as u32).collect();
        let view = capture(&ds, &mut client, "t", &probe).unwrap();
        (model, view)
    }

    fn failed_checks(view: &ServedView, model: &Model) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = check(view, model, ALPHA, BETA)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        names.dedup();
        names
    }

    #[test]
    fn each_check_catches_its_seeded_corruption() {
        let (model, view) = served();
        assert_eq!(failed_checks(&view, &model), Vec::<&str>::new());
        assert!(
            view.rules.iter().any(|r| r.lhs.len() == 1),
            "fixture needs rules"
        );
        assert!(!view.pairs.is_empty(), "fixture needs discover pairs");

        // relation: a served tuple gains a name the model lacks.
        let mut bad = view.clone();
        bad.tuples[0].1.push("Phantom".into());
        assert_eq!(failed_checks(&bad, &model), vec!["relation"]);

        // rule_counts: one served count is off by one.
        let mut bad = view.clone();
        bad.rules[0].union_count += 1;
        assert_eq!(failed_checks(&bad, &model), vec!["rule_counts"]);

        // rule_completeness: a qualifying single-antecedent rule is dropped.
        let mut bad = view.clone();
        let at = bad.rules.iter().position(|r| r.lhs.len() == 1).unwrap();
        bad.rules.remove(at);
        assert_eq!(failed_checks(&bad, &model), vec!["rule_completeness"]);

        // recommend: a reply names an annotation the tuple already holds.
        let mut bad = view.clone();
        let (tid, lines) = bad
            .recommendations
            .iter_mut()
            .find(|(tid, lines)| !lines.is_empty() && !model.annotations_of(*tid).is_empty())
            .expect("fixture needs an annotated tuple with a recommendation");
        lines[0].name = model.annotations_of(*tid)[0].clone();
        assert_eq!(failed_checks(&bad, &model), vec!["recommend"]);

        // recommend: replies out of confidence order.
        let mut bad = view.clone();
        let (_, lines) = bad
            .recommendations
            .iter_mut()
            .find(|(_, lines)| !lines.is_empty())
            .unwrap();
        let mut louder = lines[0].clone();
        louder.confidence += 0.5;
        lines.push(louder);
        assert_eq!(failed_checks(&bad, &model), vec!["recommend"]);

        // discover: a co-occurrence count is off by one.
        let mut bad = view.clone();
        bad.pairs[0].count += 1;
        assert_eq!(failed_checks(&bad, &model), vec!["discover"]);
    }

    #[test]
    fn reply_lines_parse() {
        let r = parse_recommendation(
            "add Annot_1 conf=0.7500 sup=0.6000 [28, 85 -> Annot_1 (conf=0.7500, sup=0.6000)]",
        )
        .unwrap();
        assert_eq!(r.name, "Annot_1");
        assert_eq!(r.lhs, vec!["28", "85"]);
        assert!((r.confidence - 0.75).abs() < 1e-12);
        let p = parse_pair("Annot_1 ~ Annot_9 count=12 support=0.1 lift=2.0 leverage=0.01 significant=true cross=false").unwrap();
        assert_eq!(
            (p.a.as_str(), p.b.as_str(), p.count),
            ("Annot_1", "Annot_9", 12)
        );
        assert!(parse_pair("garbage").is_err());
    }
}
