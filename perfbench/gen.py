"""Seeded synthetic inputs for the memomap benchmark.

Self-contained on purpose: it imports nothing from the repository, so an
edit to the tests or to the program cannot change the benchmark's inputs.
The same (workload, size, seed) always produces the same bytes.

Files written into the output directory:

  memos.jsonl      memo corpus (a few memos carry no reference section)
  articles.jsonl   article records
  awards.jsonl     award database (linked projects plus pool-only projects)
  aliases.csv      funder alias table
  config.yaml      pipeline config (remote fallback on, offline mode)
  remote_cache/    offline answers of the remote lookup service
  labels.jsonl     ground truth: {memo_id, ordinal, article_id | null}

Titles draw from a Zipf-distributed vocabulary of pseudo-words plus real
stop words, which gives the realistic mix of many short posting lists and a
few very long ones.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

# Per workload and size: records, memos, reference fragments (split over the
# memos that have a reference section, each getting between refs[0] and
# refs[1]), and the share of articles with funding. Every count is fixed, so
# only the content changes with the seed, not the amount of work.
SIZES = {
    "resolve-zipf": {
        "full": dict(records=5000, vocab=20000, memos=12, fragments=300, refs=(15, 35),
                     funded=0.3, projects=(1, 2), orgs=200, surnames=6000),
        "smoke": dict(records=400, vocab=2000, memos=4, fragments=30, refs=(8, 12),
                      funded=0.3, projects=(1, 2), orgs=20, surnames=300),
    },
    "tail-rerun": {
        "full": dict(records=600, vocab=20000, memos=500, fragments=2880, refs=(4, 8),
                     funded=1.0, projects=(2, 6), orgs=300, surnames=2000),
        "smoke": dict(records=80, vocab=2000, memos=30, fragments=168, refs=(4, 8),
                      funded=1.0, projects=(2, 6), orgs=20, surnames=200),
    },
}

DISTRACTOR_SHARE = 0.2
NO_SECTION_SHARE = 0.04
ZIPF_S = 1.07

STOP_WORDS = ["of", "the", "in", "and", "for", "with", "a", "on", "to", "by", "among", "after"]

FUNDERS = [
    ("NCI", "National Cancer Institute", "CA"),
    ("NHLBI", "National Heart Lung and Blood Institute", "HL"),
    ("NIDDK", "National Institute of Diabetes and Digestive and Kidney Diseases", "DK"),
    ("NIAID", "National Institute of Allergy and Infectious Diseases", "AI"),
    ("NINDS", "National Institute of Neurological Disorders and Stroke", "NS"),
    ("NIA", "National Institute on Aging", "AG"),
    ("NIGMS", "National Institute of General Medical Sciences", "GM"),
    ("NIMH", "National Institute of Mental Health", "MH"),
    ("NICHD", "Eunice Kennedy Shriver National Institute of Child Health and Human Development", "HD"),
    ("NIEHS", "National Institute of Environmental Health Sciences", "ES"),
    ("NIDA", "National Institute on Drug Abuse", "DA"),
    ("NIAMS", "National Institute of Arthritis and Musculoskeletal and Skin Diseases", "AR"),
    ("NEI", "National Eye Institute", "EY"),
    ("NINR", "National Institute of Nursing Research", "NR"),
    ("NIBIB", "National Institute of Biomedical Imaging and Bioengineering", "EB"),
    ("NCATS", "National Center for Advancing Translational Sciences", "TR"),
    ("AHRQ", "Agency for Healthcare Research and Quality", "HS"),
    ("CDC", "Centers for Disease Control and Prevention", "CE"),
    ("FDA", "Food and Drug Administration", "FD"),
    ("NIAAA", "National Institute on Alcohol Abuse and Alcoholism", "AA"),
]
MECHANISMS = ["R01", "R01", "R01", "R21", "P30", "P01", "U01", "K23", "T32", "R03", "U54"]

JOURNAL_HEADS = ["J", "Am J", "Ann", "Arch", "Int J", "Eur J", "Br J", "Clin", "Proc", "Curr",
                 "Scand J", "Can J", "N Engl J", "Acta", "Trans"]
JOURNAL_FIELDS = ["Med", "Cardiol", "Oncol", "Neurol", "Surg", "Pediatr", "Epidemiol", "Radiol",
                  "Nephrol", "Endocrinol", "Gastroenterol", "Hepatol", "Immunol", "Infect Dis",
                  "Psychiatry", "Pharmacol", "Physiol", "Rheumatol", "Urol", "Obstet Gynecol",
                  "Ophthalmol", "Dermatol", "Hematol", "Geriatr", "Public Health", "Nutr",
                  "Clin Invest", "Intern Med", "Crit Care", "Respir Med", "Orthop", "Anesth",
                  "Emerg Med", "Neurosurg", "Thorac Surg", "Vasc Surg", "Transplant", "Genet"]

AGENCIES = ["Food and Drug Administration", "Centers for Medicare and Medicaid Services",
            "Institute of Medicine", "World Health Organization", "Government Accountability Office",
            "Veterans Health Administration", "National Academy of Sciences",
            "Office of Inspector General"]
REPORT_KINDS = ["Guidance for industry on", "Technology assessment of", "Coverage analysis of",
                "Annual surveillance summary of", "Consensus statement on",
                "Evidence review of", "Draft framework for", "Program memorandum on"]

_ONSETS = ["b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
           "br", "ch", "cr", "dr", "fl", "gr", "pl", "pr", "sc", "sh", "st", "th", "tr"]
_VOWELS = ["a", "e", "i", "o", "u", "ae", "ai", "ea", "io", "ou"]
_CODAS = ["", "", "", "n", "r", "s", "l", "m", "x", "nt", "st", "rd"]


def _pseudo_words(rng: random.Random, n: int, syllables: tuple[int, int]) -> list[str]:
    words: list[str] = []
    seen = set(STOP_WORDS)
    while len(words) < n:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
            for _ in range(rng.randint(*syllables))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Zipf:
    """Draws items with probability proportional to 1 / rank**s."""

    def __init__(self, items: list, s: float = ZIPF_S) -> None:
        self.items = items
        self.cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(len(items))))

    def draw(self, rng: random.Random, k: int = 1) -> list:
        return rng.choices(self.items, cum_weights=self.cum, k=k)

    def one(self, rng: random.Random):
        return self.draw(rng)[0]


def _title(rng: random.Random, vocab: _Zipf, n_words: tuple[int, int]) -> str:
    words = []
    for word in vocab.draw(rng, rng.randint(*n_words)):
        if words and rng.random() < 0.3:
            words.append(rng.choice(STOP_WORDS))
        words.append(word)
    return " ".join(words).capitalize()


def _make_records(rng, size, vocab, surnames, journals):
    records = []
    for i in range(size["records"]):
        authors = []
        for surname in dict.fromkeys(surnames.draw(rng, rng.randint(1, 6))):
            initials = "".join(rng.sample("ABCDEFGHJKLMNPRSTW", rng.randint(1, 2)))
            authors.append(f"{surname} {initials}")
        records.append({
            "article_id": f"{30000000 + i * 7:08d}",
            "title": _title(rng, vocab, (5, 12)),
            "authors": authors,
            "journal": journals.one(rng),
            "pub_year": rng.randint(1985, 2019),
            "volume": str(rng.randint(1, 400)),
            "pages": f"{rng.randint(1, 900)}-{rng.randint(901, 1800)}",
            "grant_tags": [],
            "retracted": rng.random() < 0.01,
        })
    return records


def _make_orgs(rng: random.Random, n: int) -> list[tuple[str, str]]:
    names = _pseudo_words(rng, n, (2, 3))
    forms = ["University of {}", "{} Medical Center", "{} Institute", "{} College of Medicine",
             "{} Research Foundation"]
    return [(f"{100000000 + i * 37:09d}", rng.choice(forms).format(name.capitalize()))
            for i, name in enumerate(names)]


def _split(rng: random.Random, total: int, parts: int, lo: int, hi: int) -> list[int]:
    """``parts`` random sizes in [lo, hi] that sum to exactly ``total``."""
    sizes = [rng.randint(lo, hi) for _ in range(parts)]
    excess = sum(sizes) - total
    while excess:
        i = rng.randrange(parts)
        if excess > 0 and sizes[i] > lo:
            sizes[i] -= 1
            excess -= 1
        elif excess < 0 and sizes[i] < hi:
            sizes[i] += 1
            excess += 1
    return sizes


def _make_awards(rng, size, records, orgs):
    """Projects behind funded articles, plus pool-only projects.

    Each project has one award row per fiscal year. An article lists a
    project in its grant tags, or the project's rows cite the article, or
    both, so both linkage directions are exercised.
    """
    funders = _Zipf(FUNDERS, s=0.9)
    org_pick = _Zipf(orgs, s=0.8)
    funded = sorted(rng.sample(range(len(records)), round(size["funded"] * len(records))))
    n_linked = round(len(funded) * sum(size["projects"]) / 2)
    per_article = _split(rng, n_linked, len(funded), *size["projects"])
    years_per_project = iter(_split(rng, 6 * n_linked, 2 * n_linked, 1, 5))
    serials = iter(rng.sample(range(10000, 999999), 2 * n_linked))
    awards = []

    def project(pub_year: int, cite: str | None):
        code, name, ic = funders.one(rng)
        mech = rng.choice(MECHANISMS)
        core = f"{mech}{ic}{next(serials):06d}"
        start = pub_year - rng.randint(1, 6)
        org = None if rng.random() < 0.05 else org_pick.one(rng)
        years = next(years_per_project)
        for k in range(years):
            row = {
                "full_project_number": f"{core}-{k + 1:02d}",
                "core_project_number": core,
                "funder_code": code,
                "fiscal_year": start + k,
                "cited_article_ids": [cite] if cite and k == years - 1 else [],
            }
            if org is not None:
                row["org_id"], row["org_name"] = org
            awards.append(row)
        return code, name, mech, ic, core[len(mech) + len(ic):], years

    for i, n_projects in zip(funded, per_article):
        record = records[i]
        for _ in range(n_projects):
            in_tags = rng.random() < 0.7
            cites = not in_tags or rng.random() < 0.6
            code, name, mech, ic, serial, years = project(
                record["pub_year"], record["article_id"] if cites else None
            )
            if in_tags:
                roll = rng.random()
                funder_text = name if roll < 0.6 else code if roll < 0.93 else f"{name} (NIH)"
                record["grant_tags"].append({
                    "award_text": f"{mech} {ic}{serial}-{rng.randint(1, years):02d}",
                    "funder_text": funder_text,
                })
    for _ in range(n_linked):
        project(rng.randint(1990, 2019), None)
    awards.sort(key=lambda a: a["full_project_number"])
    return awards


def _citation(rng: random.Random, record: dict) -> str:
    """A damaged but genuine citation of ``record``."""
    authors = list(record["authors"])
    title_words = record["title"].rstrip(".").split()
    if rng.random() < 0.08:
        # Mangled: a surname and under half the title. Often unresolvable.
        # At least 30 characters, so the segmenter keeps it and ordinals
        # stay aligned with the labels.
        keep = max(3, int(len(title_words) * 0.45))
        text = ""
        while len(text) < 30 and keep <= len(title_words):
            text = f"{authors[0].split()[0]}. {' '.join(title_words[:keep])}."
            keep += 1
        return text
    if rng.random() < 0.5:
        rng.shuffle(authors)
    if len(authors) > 3 and rng.random() < 0.5:
        authors = authors[:3] + ["et al"]
    if rng.random() < 0.4:
        title_words = title_words[: len(title_words) - rng.randint(1, max(1, len(title_words) // 3))]
    year = record["pub_year"] + (rng.choice((-1, 1)) if rng.random() < 0.2 else 0)
    pieces = [", ".join(authors) + ".", " ".join(title_words) + "."]
    if rng.random() >= 0.25:
        pieces.append(record["journal"] + ".")
    pieces.append(f"{year};{record['volume']}:{record['pages']}.")
    return " ".join(pieces)


def _distractor(rng: random.Random, vocab: _Zipf) -> str:
    topic = " ".join(vocab.draw(rng, rng.randint(2, 4)))
    return (f"{rng.choice(AGENCIES)}. {rng.choice(REPORT_KINDS)} {topic}. "
            f"{rng.randint(1990, 2020)}.")


def _sentence(rng: random.Random, vocab: _Zipf) -> str:
    return _title(rng, vocab, (8, 16)) + "."


def _make_memos(rng, size, records, vocab):
    memos, labels, citations = [], [], []
    n_memos = size["memos"]
    no_section = set(rng.sample(range(n_memos), max(1, round(n_memos * NO_SECTION_SHARE))))
    n_refs = iter(_split(rng, size["fragments"], n_memos - len(no_section), *size["refs"]))
    distractors = set(rng.sample(range(size["fragments"]), round(size["fragments"] * DISTRACTOR_SHARE)))
    for i in range(n_memos):
        memo_id = f"CAG-{i + 1:05d}{'NR'[i % 2]}"
        lines = [f"Decision Memo for {_title(rng, vocab, (3, 6))}", "", "I. Decision"]
        lines += [_sentence(rng, vocab) for _ in range(rng.randint(2, 4))]
        lines += ["", "II. Analysis"]
        lines += [_sentence(rng, vocab) for _ in range(rng.randint(3, 8))]
        if i not in no_section:
            lines += ["", "References"]
            for ordinal in range(next(n_refs)):
                if len(labels) in distractors:
                    text, truth = _distractor(rng, vocab), None
                else:
                    record = rng.choice(records)
                    text, truth = _citation(rng, record), record["article_id"]
                lines.append(f"{ordinal + 1}. {text}")
                labels.append({"memo_id": memo_id, "ordinal": ordinal, "article_id": truth})
                citations.append((text, truth))
            if rng.random() < 0.2:
                lines += ["", "Appendix", _sentence(rng, vocab)]
        year = rng.randint(2000, 2020)
        memos.append({
            "memo_id": memo_id,
            "title": lines[0],
            "decision_date": f"{year}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
            "body_text": "\n".join(lines) + "\n",
        })
    return memos, labels, citations


def _remote_answers(rng: random.Random, citations, article_ids: list[str]) -> dict[str, list[str]]:
    """Offline cache: a third unique correct ids, a third ambiguous, the rest misses."""
    answers: dict[str, list[str]] = {}
    for text, truth in citations:
        if text in answers:
            continue
        roll = rng.random()
        if truth is not None and roll < 1 / 3:
            answers[text] = [truth]
        elif roll < 2 / 3:
            answers[text] = sorted(rng.sample(article_ids, 2) + ([truth] if truth else []))
        else:
            answers[text] = []
    return answers


CONFIG_YAML = """\
paths:
  corpus: memos.jsonl
  records: articles.jsonl
  award_db: awards.jsonl
  aliases: aliases.csv
  workdir: out
corpus:
  min_fragment_chars: 25
resolver:
  threshold: 0.55
  margin: 0.05
  k: 10
remote:
  enabled: true
  offline: true
  cache_dir: remote_cache
funding:
  on_unmapped: warn
stats:
  denominator: pool_entities
  ci_level: 0.95
  min_obs: 5
report:
  top_k: 10
"""


def _jsonl(rows) -> str:
    return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)


def generate(workload: str, seed: int, out_dir: Path, size: str = "full") -> list[dict]:
    """Write every input file of one workload into ``out_dir``; return the labels."""
    params = SIZES[workload][size]
    rng = random.Random(f"memomap-bench:{workload}:{size}:{seed}")
    vocab = _Zipf(_pseudo_words(rng, params["vocab"], (1, 3)))
    surnames = _Zipf([w.capitalize() for w in _pseudo_words(rng, params["surnames"], (2, 3))], s=0.8)
    journals = _Zipf(sorted({f"{h} {f}" for h in JOURNAL_HEADS for f in JOURNAL_FIELDS}), s=1.0)

    records = _make_records(rng, params, vocab, surnames, journals)
    awards = _make_awards(rng, params, records, _make_orgs(rng, params["orgs"]))
    memos, labels, citations = _make_memos(rng, params, records, vocab)
    answers = _remote_answers(rng, citations, [r["article_id"] for r in records])

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "memos.jsonl").write_text(_jsonl(memos), encoding="utf-8")
    (out_dir / "articles.jsonl").write_text(_jsonl(records), encoding="utf-8")
    (out_dir / "awards.jsonl").write_text(_jsonl(awards), encoding="utf-8")
    (out_dir / "labels.jsonl").write_text(_jsonl(labels), encoding="utf-8")
    alias_rows = ["raw_name,canonical_code"]
    for code, name, _ in FUNDERS:
        alias_rows += [f"{name},{code}", f"{code},{code}"]
    (out_dir / "aliases.csv").write_text("\n".join(alias_rows) + "\n", encoding="utf-8")
    (out_dir / "config.yaml").write_text(CONFIG_YAML, encoding="utf-8")
    cache = out_dir / "remote_cache"
    cache.mkdir(exist_ok=True)
    for text, ids in answers.items():
        # File name and payload follow the remote client's cache contract:
        # sha256 of the query text, {"ids": [...]}.
        name = hashlib.sha256(text.encode("utf-8")).hexdigest()
        (cache / f"{name}.json").write_text(json.dumps({"ids": ids}) + "\n", encoding="utf-8")
    return labels
