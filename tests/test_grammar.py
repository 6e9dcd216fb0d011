"""Parse lock: what every text grammar answers on a seeded corpus of one-character edits.

For each of 100 seeds a group is drawn (reduced and nonreduced in turn), and
six printed texts come from it: its cocharacteristic, the height floor of one
of its elements, an element, and a descriptor of each of the three kinds.
Each text gets one seeded single-character deletion, insertion or
substitution, ASCII only (a quarter of them swap a digit for a digit, which
keeps most texts well formed), and is parsed back: a characteristic by
``Characteristic.parse`` (a floor with the ``MAX_HEIGHT`` bound), an element
by ``parse_elem`` and a descriptor by ``parse_descriptor``, both in the group.
The outcome is the canonical text of the value, or the error class with its
message, which names the position and what was expected there.
tests/golden/grammar/outcomes.json holds every input with its outcome; a
change that alters one on purpose regenerates it with

    PYTHONPATH=src python tests/test_grammar.py
"""

import json
import random
from pathlib import Path

from qdrings.foundations import MAX_HEIGHT, Characteristic
from qdrings.group import char_of, is_torsion
from qdrings.oracle import TrialConfig, random_element, random_group
from qdrings.subgroup import full_inv, parse_descriptor, plus_cyclic, torsion_inv

OUTCOMES = Path(__file__).parent / "golden" / "grammar" / "outcomes.json"
SEEDS = range(100)
# every character the grammars use, a space, and a few they do not
ALPHABET = "0123456789-/;:,=()+*abdefilnqrtuGTZ x."

PARSERS = {
    "cochar": lambda text, G: Characteristic.parse(text),
    "floor": lambda text, G: Characteristic.parse(text, MAX_HEIGHT),
    "elem": lambda text, G: G.parse_elem(text),
    "descriptor": lambda text, G: parse_descriptor(text, G),
}


def _texts(seed: int):
    """(kind, group, printed text) for the six texts drawn at one seed."""
    cfg = TrialConfig(seed=seed, trials=1)
    rng = cfg.rng("grammar")
    G = random_group(rng, cfg, reduced=seed % 2 == 0, with_torsion=seed % 3 != 0)
    g = random_element(G, rng, cfg)
    while is_torsion(g):
        g = random_element(G, rng, cfg)
    t = random_element(G, rng, cfg, torsion=True)
    floor = char_of(t if seed % 4 == 1 else g)
    return G, [
        ("cochar", G.cochar),
        ("floor", floor),
        ("elem", t if seed % 3 == 2 else g),
        ("descriptor", full_inv(G, char_of(g))),
        ("descriptor", torsion_inv(G, floor)),
        ("descriptor", plus_cyclic(torsion_inv(G, char_of(t)), g)),
    ]


def _edit(text: str, rng: random.Random) -> str:
    """Delete, insert or substitute one character; a quarter of the edits swap one digit for another."""
    op = rng.randrange(4)
    if op == 0:
        i = rng.randrange(len(text))
        return text[:i] + text[i + 1 :]
    digits = [i for i, c in enumerate(text) if c in "0123456789"]
    if op == 3 and digits:
        i = digits[rng.randrange(len(digits))]
        return text[:i] + str(rng.randrange(10)) + text[i + 1 :]
    c = ALPHABET[rng.randrange(len(ALPHABET))]
    if op == 1:
        i = rng.randrange(len(text) + 1)
        return text[:i] + c + text[i:]
    i = rng.randrange(len(text))
    return text[:i] + c + text[i + 1 :]


def _outcome(kind: str, text: str, G) -> dict:
    try:
        value = PARSERS[kind](text, G)
    except ValueError as exc:  # ParseError and the other input errors
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {"value": str(value)}


def outcomes() -> list[dict]:
    entries = []
    for seed in SEEDS:
        rng = random.Random(f"grammar-edit-{seed}")
        G, texts = _texts(seed)
        for kind, value in texts:
            text = _edit(str(value), rng)
            entries.append({"kind": kind, "group": str(G.cochar), "text": text, **_outcome(kind, text, G)})
    return entries


def _dump(entries: list[dict]) -> str:
    return "[\n" + ",\n".join(json.dumps(e, ensure_ascii=False) for e in entries) + "\n]\n"


def test_parse_outcomes_match_the_recorded_file():
    assert _dump(outcomes()) == OUTCOMES.read_text()


def test_the_corpus_reaches_values_and_errors_of_every_grammar():
    entries = json.loads(OUTCOMES.read_text())
    assert len(entries) == 6 * len(SEEDS)
    for kind in PARSERS:
        answers = [e for e in entries if e["kind"] == kind]
        assert any(e.get("error", "").startswith("ParseError: ") for e in answers)
        assert any("value" in e for e in answers)
    descriptors = {e["text"][:2] for e in entries if e["kind"] == "descriptor"}
    assert {"G(", "T("} <= descriptors
    assert any("+Z*q=" in e["text"] for e in entries) and any("+Z*r=" in e["text"] for e in entries)


if __name__ == "__main__":
    OUTCOMES.parent.mkdir(exist_ok=True)
    OUTCOMES.write_text(_dump(outcomes()))
