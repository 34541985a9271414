"""Deterministic toy scenes and grounded multi-round dialogs.

A scene is a handful of attributed objects on a grid; a dialog is a caption
plus several templated QA rounds where later questions refer to the
previous round's one subject object by pronoun ("he" for a person, else
"it"). Each question is a :class:`ResolvedQuestion` form: :func:`question_tokens`
words it and the symbolic oracle answers it exactly, so ground truth is free
and verifiable. The whole corpus is a pure function of its manifest: every
dialog draws from an rng stream derived from (seed, dialog id).
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .config import JsonRecord, atomic_open
from .encoders import PAD_TOKEN, UNK_TOKEN

CATEGORIES = ("person", "dog", "cat", "car", "tree", "ball")
COLORS = ("red", "blue", "green", "yellow", "black", "white")
SIZES = ("small", "big")
# relation -> (cell axis, sign, words); it holds when sign * (subject's cell
# - reference's cell) > 0 on that axis, never for equal coordinates
RELATIONS = {"left": (0, -1, ("left", "of")), "right": (0, 1, ("right", "of")),
             "above": (1, -1, ("above",)), "below": (1, 1, ("below",))}
PLURALS = {"person": "people", "dog": "dogs", "cat": "cats",
           "car": "cars", "tree": "trees", "ball": "balls"}

COUNT_CAP = 9  # counting answers stay single-token digits
MIN_OBJECTS, MAX_OBJECTS = 3, 16
MIN_ROUNDS, MAX_ROUNDS = 2, 10
MAX_GEN_ATTEMPTS = 100

FEATURE_DIM = len(CATEGORIES) + len(COLORS) + len(SIZES) + 2

ANSWER_POOLS = {
    "yesno": ("yes", "no"),
    "color": COLORS,
    "size": SIZES,
    "count": tuple(str(i) for i in range(COUNT_CAP + 1)),
}
MAX_CANDIDATES = sum(len(p) for p in ANSWER_POOLS.values())


class GenerationError(RuntimeError):
    """The scene cannot support any valid continuation of the dialog."""


class UnresolvedReferent(ValueError):
    """A question reached the oracle without its referents bound."""


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SceneObject:
    category: str
    color: str
    size: str
    cell: tuple[int, int]  # (col, row)


@dataclass
class Scene:
    objects: list[SceneObject]
    grid: int

    def features(self) -> np.ndarray:
        """(FEATURE_DIM, n) matrix, one injective encoding per object:
        one-hot category/color/size blocks plus normalized grid position."""
        return np.stack([encode_object(o, self.grid) for o in self.objects], axis=1)


def encode_object(obj: SceneObject, grid: int) -> np.ndarray:
    vec = np.zeros(FEATURE_DIM)
    vec[CATEGORIES.index(obj.category)] = 1.0
    vec[len(CATEGORIES) + COLORS.index(obj.color)] = 1.0
    vec[len(CATEGORIES) + len(COLORS) + SIZES.index(obj.size)] = 1.0
    denom = max(grid - 1, 1)
    vec[-2] = obj.cell[0] / denom
    vec[-1] = obj.cell[1] / denom
    return vec


def generate_scene(rng: np.random.Generator, n_objects: int = 6, grid: int = 4) -> Scene:
    """Uniform attribute sampling; (category, color) pairs never collide
    (always avoidable at <= 16 objects over 36 pairs). ``n_objects`` outside
    [MIN_OBJECTS, MAX_OBJECTS] is a ValueError."""
    if not MIN_OBJECTS <= n_objects <= MAX_OBJECTS:
        raise ValueError(f"n_objects must be in [{MIN_OBJECTS}, {MAX_OBJECTS}], got {n_objects}")
    used: set[tuple[str, str]] = set()
    objects = []
    for _ in range(n_objects):
        while True:
            cat = CATEGORIES[rng.integers(len(CATEGORIES))]
            color = COLORS[rng.integers(len(COLORS))]
            if (cat, color) not in used:
                used.add((cat, color))
                break
        size = SIZES[rng.integers(len(SIZES))]
        cell = (int(rng.integers(grid)), int(rng.integers(grid)))
        objects.append(SceneObject(cat, color, size, cell))
    return Scene(objects, grid)


# ---------------------------------------------------------------------------
# questions and the oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedQuestion:
    """Structured question with referents bound to scene object indices."""

    kind: str  # exists | count | color_of | size_of | spatial
    category: str | None = None
    color: str | None = None
    subject_ids: tuple[int, ...] = ()
    ref_id: int | None = None
    relation: str | None = None

    def to_dict(self) -> dict:
        return {k: (list(v) if isinstance(v, tuple) else v)
                for k, v in dataclasses.asdict(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "ResolvedQuestion":
        data = dict(data)
        data["subject_ids"] = tuple(data.get("subject_ids", ()))
        return cls(**data)


def _matches(obj: SceneObject, category: str | None, color: str | None) -> bool:
    return (category is None or obj.category == category) and (
        color is None or obj.color == color)


def oracle_answer(scene: Scene, question: ResolvedQuestion) -> str:
    """Exact symbolic evaluation over scene attributes and relations.

    Referents must already be bound (the generator records them): a
    color_of, size_of or spatial question has exactly one subject, and every
    object id is in range. Anything else raises :class:`UnresolvedReferent`.
    """
    objs = scene.objects
    kind = question.kind
    if kind == "exists":
        if question.category is None and question.color is None:
            raise UnresolvedReferent("exists question with no predicate")
        return "yes" if any(_matches(o, question.category, question.color)
                            for o in objs) else "no"
    if kind == "count":
        if question.category is None and question.color is None:
            raise UnresolvedReferent("count question with no predicate")
        n = sum(_matches(o, question.category, question.color) for o in objs)
        return str(min(n, COUNT_CAP))
    if kind in ("color_of", "size_of", "spatial"):
        ids = question.subject_ids
        if len(ids) != 1 or not 0 <= ids[0] < len(objs):
            raise UnresolvedReferent(f"{kind} question needs one subject id in range, "
                                     f"got {ids}")
        subject = objs[ids[0]]
        if kind == "color_of":
            return subject.color
        if kind == "size_of":
            return subject.size
        if question.ref_id is None or question.relation is None:
            raise UnresolvedReferent("spatial question missing reference or relation")
        if not 0 <= question.ref_id < len(objs):
            raise UnresolvedReferent(f"reference id {question.ref_id} out of range")
        ref = objs[question.ref_id]
        if question.relation not in RELATIONS:
            raise ValueError(f"unknown relation {question.relation!r}")
        axis, sign, _ = RELATIONS[question.relation]
        return "yes" if sign * (subject.cell[axis] - ref.cell[axis]) > 0 else "no"
    raise ValueError(f"unknown question kind {kind!r}")


def answer_type(question: ResolvedQuestion) -> str:
    return {"exists": "yesno", "spatial": "yesno", "count": "count",
            "color_of": "color", "size_of": "size"}[question.kind]


def binding_answers(scene: Scene, question: ResolvedQuestion, pronoun: str) -> set[str]:
    """Answers achievable when the pronoun binds freely (no history): 'he'
    ranges over the persons, 'it' over every other object but a spatial
    question's reference, each taken as the question's one subject."""
    return {oracle_answer(scene, dataclasses.replace(question, subject_ids=(i,)))
            for i, o in enumerate(scene.objects)
            if (o.category == "person") == (pronoun == "he") and i != question.ref_id}


def question_tokens(scene: Scene, form: ResolvedQuestion,
                    pronoun: str | None = None) -> list[str]:
    """The words of a generated question, from its form alone. A color_of,
    size_of or spatial subject is ``pronoun``, else "the <category>"."""
    if form.kind == "exists":
        return ["is", "there", "a", form.color, form.category]
    if form.kind == "count":  # by category or by color
        noun = [PLURALS[form.category]] if form.category else [form.color, "things"]
        return ["how", "many", *noun, "are", "there"]
    subject = [pronoun] if pronoun else ["the", scene.objects[form.subject_ids[0]].category]
    if form.kind == "spatial":
        _, _, words = RELATIONS[form.relation]
        return ["is", *subject, *words, "the", scene.objects[form.ref_id].category]
    return ["what", {"color_of": "color", "size_of": "size"}[form.kind], "is", *subject]


# the generator writes only "it" and "he"; loaded files may hold "they" too
PRONOUNS = ("it", "he", "they")


# ---------------------------------------------------------------------------
# dialog generation
# ---------------------------------------------------------------------------


@dataclass
class DialogRound:
    question: list[str]
    answer: str
    form: ResolvedQuestion
    subject_ids: tuple[int, ...]

    @property
    def pronoun(self) -> bool:
        """Whether the question refers back by pronoun: it holds one of
        :data:`PRONOUNS`. An establishing question names its subject as
        "the <category>", so it holds none."""
        return any(tok in PRONOUNS for tok in self.question)


@dataclass
class DialogInstance:
    dialog_id: int
    scene: Scene
    caption: list[str]
    rounds: list[DialogRound]     # all rounds; the last one is the current question
    candidates: list[str]
    gt: int

    @property
    def history(self) -> list[DialogRound]:
        return self.rounds[:-1]

    @property
    def current(self) -> DialogRound:
        return self.rounds[-1]


def _unique_category_ids(scene: Scene) -> list[int]:
    counts = {}
    for o in scene.objects:
        counts[o.category] = counts.get(o.category, 0) + 1
    return [i for i, o in enumerate(scene.objects) if counts[o.category] == 1]


def _choice(rng: np.random.Generator, items: Sequence):
    return items[int(rng.integers(len(items)))]


def _round(scene: Scene, form: ResolvedQuestion, subject_ids: tuple[int, ...],
           pronoun: str | None = None) -> DialogRound:
    """The round asking ``form``; ``subject_ids`` are what a following
    pronoun round refers to."""
    return DialogRound(question_tokens(scene, form, pronoun),
                       oracle_answer(scene, form), form, subject_ids)


def _establishing_round(scene: Scene, rng: np.random.Generator,
                        need_subject: bool) -> DialogRound:
    """A fresh (non-pronoun) round; with ``need_subject`` it always pins a
    unique referent for the next round's pronoun.

    Subject-pinning rounds lean on attribute questions: the follow-up
    pronoun question then sits right next to a round that names the
    subject and one of its attributes, which is the co-reference pattern
    the model is meant to exploit.
    """
    if need_subject:
        options = ["exists_pos", "color_of", "color_of", "color_of",
                   "size_of", "spatial", "count"]
    else:
        options = ["exists_pos", "color_of", "size_of", "spatial", "count",
                   "exists_neg", "count_color"]
    unique_ids = _unique_category_ids(scene)
    for _ in range(MAX_GEN_ATTEMPTS):
        template = _choice(rng, options)
        if template == "exists_pos":
            i = int(rng.integers(len(scene.objects)))
            obj = scene.objects[i]
            form, ids = ResolvedQuestion("exists", category=obj.category, color=obj.color), (i,)
        elif template == "exists_neg":
            cat, color = _choice(rng, CATEGORIES), _choice(rng, COLORS)
            form, ids = ResolvedQuestion("exists", category=cat, color=color), ()
            if oracle_answer(scene, form) == "yes":
                continue
        elif template in ("color_of", "size_of"):
            if not unique_ids:
                continue
            i = _choice(rng, unique_ids)
            form, ids = ResolvedQuestion(template, subject_ids=(i,)), (i,)
        elif template == "spatial":
            if len(unique_ids) < 2:
                continue
            i, j = (int(k) for k in rng.choice(unique_ids, size=2, replace=False))
            form = ResolvedQuestion("spatial", subject_ids=(i,), ref_id=j,
                                    relation=_choice(rng, tuple(RELATIONS)))
            ids = (i,)
        elif template == "count":
            cat = _choice(rng, sorted({o.category for o in scene.objects}))
            ids = tuple(i for i, o in enumerate(scene.objects) if o.category == cat)
            if need_subject and len(ids) != 1:
                # a group gets no pronoun round, and the final round needs one
                continue
            form = ResolvedQuestion("count", category=cat)
        else:  # count_color
            form, ids = ResolvedQuestion("count", color=_choice(rng, COLORS)), ()
        return _round(scene, form, ids)
    raise GenerationError("no establishing template fits this scene")


def _pronoun_round(scene: Scene, rng: np.random.Generator,
                   subject_ids: tuple[int, ...],
                   require_ambiguity: bool) -> DialogRound | None:
    """A pronoun round about the previous round's subject, or None if no
    template fits. ``require_ambiguity`` additionally demands that an
    unbound pronoun could reach at least two distinct answers.

    A group subject gets None before any rng draw: no generated scene has
    two objects of one category and one color to ask about as "they".

    Color questions dominate the mix: they have the widest answer space,
    so resolving the referent through history matters most there. Same-
    attribute follow-ups are allowed ("what color is the dog" -> "what
    color is it"), putting the answer verbatim in the previous round.
    """
    if len(subject_ids) != 1:
        return None
    (i,) = subject_ids
    pron = "he" if scene.objects[i].category == "person" else "it"
    templates = ("color_of", "color_of", "color_of", "size_of", "spatial")
    for idx in rng.permutation(len(templates)):
        kind = templates[idx]
        if kind == "spatial":
            ref_ids = [j for j in _unique_category_ids(scene) if j != i]
            if not ref_ids:
                continue
            j = _choice(rng, ref_ids)
            form = ResolvedQuestion("spatial", subject_ids=subject_ids, ref_id=j,
                                    relation=_choice(rng, tuple(RELATIONS)))
        else:
            form = ResolvedQuestion(kind, subject_ids=subject_ids)
        if require_ambiguity and len(binding_answers(scene, form, pron)) < 2:
            continue
        return _round(scene, form, subject_ids, pron)
    return None


def build_candidates(answer: str, kind: str, n_candidates: int,
                     rng: np.random.Generator) -> tuple[list[str], int]:
    """Ground truth plus same-type distractors first, padded with other
    answer types; shuffled, with exactly one correct entry."""
    if not (2 <= n_candidates <= MAX_CANDIDATES):
        raise ValueError(f"candidate count must be in [2, {MAX_CANDIDATES}]")
    pool = [a for a in ANSWER_POOLS[kind] if a != answer]
    fillers = [a for t, p in ANSWER_POOLS.items() if t != kind for a in p]
    options = (pool + fillers)[: n_candidates - 1]
    candidates = [answer] + options
    perm = rng.permutation(len(candidates))
    shuffled = [candidates[int(i)] for i in perm]
    return shuffled, shuffled.index(answer)


def make_caption(scene: Scene) -> list[str]:
    a, b = scene.objects[0], scene.objects[1]
    return ["a", "picture", "with", "a", a.color, a.category,
            "and", "a", b.color, b.category]


def generate_dialog(scene: Scene, rng: np.random.Generator, rounds: int,
                    n_candidates: int, dialog_id: int = 0) -> DialogInstance:
    """Multi-round dialog whose final round is a pronoun question.

    Rounds chain subjects: a pronoun round keeps the previous subject, a
    fresh round re-establishes one. The final question is guaranteed to be
    ambiguous without history (at least two answers reachable over free
    pronoun bindings).
    """
    if not (MIN_ROUNDS <= rounds <= MAX_ROUNDS):
        raise ValueError(f"rounds must be in [{MIN_ROUNDS}, {MAX_ROUNDS}], got {rounds}")
    for _ in range(MAX_GEN_ATTEMPTS):
        out: list[DialogRound] = [_establishing_round(scene, rng, need_subject=True)]
        for r in range(1, rounds - 1):
            last = out[-1]
            use_pronoun = bool(last.subject_ids) and rng.random() < 0.5
            nxt = None
            if use_pronoun:
                nxt = _pronoun_round(scene, rng, last.subject_ids,
                                     require_ambiguity=False)
            if nxt is None:
                need_subject = r == rounds - 2  # the final round needs a referent
                nxt = _establishing_round(scene, rng, need_subject=need_subject)
            out.append(nxt)
        last = out[-1]
        if not last.subject_ids:
            continue
        final = _pronoun_round(scene, rng, last.subject_ids, require_ambiguity=True)
        if final is None:
            continue
        out.append(final)
        candidates, gt = build_candidates(
            final.answer, answer_type(final.form), n_candidates, rng)
        return DialogInstance(dialog_id, scene, make_caption(scene), out,
                              candidates, gt)
    raise GenerationError(
        f"dialog {dialog_id}: no unambiguous pronoun chain found in "
        f"{MAX_GEN_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# corpus manifest and files
# ---------------------------------------------------------------------------


SPLIT_ORDER = ("train", "val", "test")


@dataclass
class CorpusManifest(JsonRecord):
    KIND = "manifest"

    seed: int = 1
    splits: dict[str, int] = field(default_factory=lambda: {"train": 500, "val": 100, "test": 100})
    grid: int = 4
    n_objects: int = 6
    rounds: int = 4
    candidates: int = 10

    def __post_init__(self) -> None:
        super().__post_init__()
        for name, count in self.splits.items():
            if name not in SPLIT_ORDER or count < 0:
                raise ValueError(f"manifest field 'splits' must map 'train', 'val' or "
                                 f"'test' to a count >= 0, got {name!r}: {count}")
        if not MIN_OBJECTS <= self.n_objects <= MAX_OBJECTS:
            raise ValueError(f"manifest field 'n_objects' must be in "
                             f"[{MIN_OBJECTS}, {MAX_OBJECTS}], got {self.n_objects}")
        if not MIN_ROUNDS <= self.rounds <= MAX_ROUNDS:
            raise ValueError(f"manifest field 'rounds' must be in "
                             f"[{MIN_ROUNDS}, {MAX_ROUNDS}], got {self.rounds}")
        if not 2 <= self.candidates <= MAX_CANDIDATES:
            raise ValueError(f"manifest field 'candidates' must be in "
                             f"[2, {MAX_CANDIDATES}], got {self.candidates}")
        if self.grid < 1:
            raise ValueError(f"manifest field 'grid' must be >= 1, got {self.grid}")
        if self.seed < 0:
            raise ValueError(f"manifest field 'seed' must be >= 0, got {self.seed}")


def generate_corpus(manifest: CorpusManifest) -> dict[str, list[DialogInstance]]:
    """Dialogs with globally unique ids, split sequentially train/val/test.

    Each dialog owns the rng stream seeded by (corpus seed, dialog id), so
    the corpus is reproducible dialog-by-dialog.
    """
    corpus: dict[str, list[DialogInstance]] = {}
    next_id = 0
    for split in SPLIT_ORDER:
        items = []
        for _ in range(manifest.splits.get(split, 0)):
            rng = np.random.default_rng([manifest.seed, next_id])
            scene = generate_scene(rng, manifest.n_objects, manifest.grid)
            items.append(generate_dialog(scene, rng, manifest.rounds,
                                         manifest.candidates, dialog_id=next_id))
            next_id += 1
        corpus[split] = items
    return corpus


def instance_to_dict(inst: DialogInstance) -> dict:
    return {
        "id": inst.dialog_id,
        "scene": {
            "grid": inst.scene.grid,
            "objects": [
                {"cat": o.category, "color": o.color, "size": o.size,
                 "cell": list(o.cell)}
                for o in inst.scene.objects
            ],
        },
        "caption": inst.caption,
        "history": [[r.question, [r.answer]] for r in inst.history],
        "question": inst.current.question,
        "candidates": [[c] for c in inst.candidates],
        "gt": inst.gt,
        "meta": {
            "round_subjects": [list(r.subject_ids) for r in inst.rounds],
            "round_forms": [r.form.to_dict() for r in inst.rounds],
        },
    }


def _check_tokens(caption, question, history, candidates) -> None:
    """Caption, question and history questions are non-empty token lists,
    history answers and candidates lists of one token, and a token is a
    string other than the reserved ones: no encoded sequence is empty or
    holds PAD. One pass over the line, as every loaded line runs it."""
    if type(candidates) is not list or type(history) is not list or not all(
            type(r) is list and len(r) == 2 for r in history):
        raise ValueError("history must be a list of [question, answer] pairs "
                         "and candidates a list")
    sents = [caption, question, *(q for q, _ in history)]
    words = [*(a for _, a in history), *candidates]
    bad = ([s for s in sents if type(s) is not list or not s]
           + [w for w in words if type(w) is not list or len(w) != 1])
    if bad:
        raise ValueError(f"token list {bad[0]!r}: caption, question and history questions "
                         "need one or more tokens, history answers and candidates one")
    reserved = (PAD_TOKEN, UNK_TOKEN)
    bad = [t for s in sents + words for t in s if type(t) is not str or t in reserved]
    if bad:
        raise ValueError(f"token {bad[0]!r}: a token is a string other than "
                         f"{PAD_TOKEN!r} and {UNK_TOKEN!r}")


def instance_from_dict(data: dict) -> DialogInstance:
    dialog_id = data["id"]
    if type(dialog_id) is not int or dialog_id < 0:
        raise ValueError(f"dialog id {dialog_id!r} is not an integer >= 0")
    _check_tokens(data["caption"], data["question"], data["history"], data["candidates"])
    gt, n_cand = data["gt"], len(data["candidates"])
    if n_cand < 2:
        raise ValueError(f"a dialog needs at least 2 candidates, got {n_cand}")
    if type(gt) is not int or not 0 <= gt < n_cand:
        raise ValueError(f"gt {gt!r} outside [0, {n_cand})")
    grid, objects = data["scene"]["grid"], data["scene"]["objects"]
    if type(grid) is not int or grid < 1:
        raise ValueError(f"scene grid {grid!r} is not an integer >= 1")
    if not objects:
        raise ValueError("scene has no objects")
    for i, o in enumerate(objects):
        cell = o["cell"]
        if not (o["cat"] in CATEGORIES and o["color"] in COLORS and o["size"] in SIZES
                and type(cell) is list and len(cell) == 2
                and type(cell[0]) is type(cell[1]) is int
                and 0 <= cell[0] < grid and 0 <= cell[1] < grid):
            raise ValueError(f"scene object {i} {o}: needs a known cat, color and size "
                             f"and a cell of two integers in [0, {grid})")
    scene = Scene([SceneObject(o["cat"], o["color"], o["size"], tuple(o["cell"]))
                   for o in objects], grid)
    meta = data["meta"]
    rounds = []
    n_hist = len(data["history"])
    for idx in range(n_hist + 1):
        if idx < n_hist:
            q, a = data["history"][idx]
            answer = a[0]
        else:
            q, answer = data["question"], data["candidates"][gt][0]
        rounds.append(DialogRound(
            question=list(q),
            answer=answer,
            form=ResolvedQuestion.from_dict(meta["round_forms"][idx]),
            subject_ids=tuple(meta["round_subjects"][idx]),
        ))
    return DialogInstance(dialog_id, scene, list(data["caption"]), rounds,
                          [c[0] for c in data["candidates"]], gt)


def save_corpus(corpus: dict[str, list[DialogInstance]], manifest: CorpusManifest,
                out_dir: str, force: bool = False) -> None:
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, f"{s}.jsonl") for s in SPLIT_ORDER]
    existing = [p for p in paths if os.path.exists(p)]
    if existing and not force:
        raise FileExistsError(f"refusing to overwrite {existing[0]} (pass force)")
    for split, path in zip(SPLIT_ORDER, paths):
        with atomic_open(path) as fh:
            for inst in corpus.get(split, []):
                fh.write(json.dumps(instance_to_dict(inst),
                                    sort_keys=True, separators=(",", ":")) + "\n")
    with atomic_open(os.path.join(out_dir, "manifest.json")) as fh:
        fh.write(manifest.to_json())


def load_split(corpus_dir: str, split: str) -> list[DialogInstance]:
    path = os.path.join(corpus_dir, f"{split}.jsonl")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no {split!r} split at {path}")
    instances = []
    id_lines: dict[int, int] = {}  # dialog id -> line it was first read on
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                inst = instance_from_dict(json.loads(line.rstrip("\n")))
            except KeyError as exc:
                raise ValueError(f"{path}:{lineno}: missing field {exc}") from exc
            except (ValueError, IndexError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if inst.dialog_id in id_lines:
                raise ValueError(f"{path}:{lineno}: dialog id {inst.dialog_id} is "
                                 f"already used on line {id_lines[inst.dialog_id]}")
            id_lines[inst.dialog_id] = lineno
            instances.append(inst)
    return instances


def token_sentences(inst: DialogInstance) -> Iterable[list[str]]:
    """Every token sequence in an instance (vocabulary building)."""
    yield inst.caption
    for r in inst.rounds:
        yield r.question
        yield [r.answer]
    for c in inst.candidates:
        yield [c]
