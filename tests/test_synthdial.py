import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cag.model import build_vocab, encode_instance
from cag.synthdial import (
    CATEGORIES,
    COLORS,
    FEATURE_DIM,
    SIZES,
    CorpusManifest,
    DialogInstance,
    GenerationError,
    ResolvedQuestion,
    Scene,
    SceneObject,
    UnresolvedReferent,
    _pronoun_round,
    binding_answers,
    build_candidates,
    encode_object,
    generate_corpus,
    generate_dialog,
    generate_scene,
    instance_from_dict,
    instance_to_dict,
    load_split,
    oracle_answer,
    question_tokens,
    save_corpus,
)
from cag.training import evaluate
from conftest import replace_one_field


def small_scene():
    return Scene([
        SceneObject("dog", "red", "small", (0, 1)),
        SceneObject("tree", "green", "big", (2, 1)),
        SceneObject("person", "blue", "big", (1, 3)),
    ], grid=4)


class TestScene:
    def test_object_count_clamped(self):
        # out-of-range counts are refused, not clamped
        for n in (1, 99):
            with pytest.raises(ValueError, match=rf"n_objects must be in \[3, 16\], got {n}"):
                generate_scene(np.random.default_rng(0), n_objects=n)

    def test_fixed_seed_reproduces_scene(self):
        a = generate_scene(np.random.default_rng(7), 6)
        b = generate_scene(np.random.default_rng(7), 6)
        assert a == b

    def test_category_color_pairs_unique(self):
        for seed in range(20):
            scene = generate_scene(np.random.default_rng(seed), 10)
            pairs = [(o.category, o.color) for o in scene.objects]
            assert len(pairs) == len(set(pairs))

    def test_feature_encoding_injective_over_attribute_space(self):
        # exhaustive: every (category, color, size, cell) tuple encodes distinctly
        grid = 2
        seen = set()
        for cat, color, size, col, row in itertools.product(
                CATEGORIES, COLORS, SIZES, range(grid), range(grid)):
            vec = encode_object(SceneObject(cat, color, size, (col, row)), grid)
            key = vec.tobytes()
            assert key not in seen
            seen.add(key)
        assert len(seen) == len(CATEGORIES) * len(COLORS) * len(SIZES) * grid * grid

    def test_features_matrix_shape(self):
        scene = small_scene()
        assert scene.features().shape == (FEATURE_DIM, 3)


class TestOracle:
    def test_existence_empty_scene_of_category(self):
        q = ResolvedQuestion("exists", category="car")
        assert oracle_answer(small_scene(), q) == "no"

    def test_existence_positive(self):
        q = ResolvedQuestion("exists", category="dog", color="red")
        assert oracle_answer(small_scene(), q) == "yes"

    def test_count_matches_enumeration(self):
        scene = Scene([
            SceneObject("tree", "green", "big", (0, 0)),
            SceneObject("tree", "red", "small", (1, 1)),
            SceneObject("dog", "blue", "big", (2, 2)),
        ], grid=4)
        q = ResolvedQuestion("count", category="tree")
        expected = sum(o.category == "tree" for o in scene.objects)
        assert oracle_answer(scene, q) == str(expected) == "2"

    def test_count_caps_at_nine(self):
        objs = [SceneObject("ball", c, "small", (0, 0)) for c in COLORS] + [
            SceneObject("ball", c, "big", (1, 1)) for c in COLORS]
        q = ResolvedQuestion("count", category="ball")
        assert oracle_answer(Scene(objs, 4), q) == "9"

    def test_spatial_strict_inequality_on_equal_coordinate(self):
        scene = small_scene()  # dog row 1, tree row 1
        q = ResolvedQuestion("spatial", subject_ids=(0,), ref_id=1, relation="above")
        assert oracle_answer(scene, q) == "no"
        q = ResolvedQuestion("spatial", subject_ids=(0,), ref_id=1, relation="left")
        assert oracle_answer(scene, q) == "yes"

    @pytest.mark.parametrize("relation,subject,ref", [
        ("left", 0, 1), ("right", 1, 0), ("above", 0, 2), ("below", 2, 0)])
    def test_each_relation_compares_one_axis(self, relation, subject, ref):
        # dog (0, 1), tree (2, 1), person (1, 3): true one way, false the other
        scene = small_scene()
        q = ResolvedQuestion("spatial", subject_ids=(subject,), ref_id=ref, relation=relation)
        assert oracle_answer(scene, q) == "yes"
        q = ResolvedQuestion("spatial", subject_ids=(ref,), ref_id=subject, relation=relation)
        assert oracle_answer(scene, q) == "no"

    def test_color_after_establishing_round(self):
        # "is there a dog" / yes, then "what color is it" resolves to the dog
        scene = small_scene()
        q = ResolvedQuestion("color_of", subject_ids=(0,))
        assert oracle_answer(scene, q) == "red"

    def test_unresolved_referent_rejected(self):
        with pytest.raises(UnresolvedReferent):
            oracle_answer(small_scene(), ResolvedQuestion("color_of"))
        with pytest.raises(UnresolvedReferent):
            oracle_answer(small_scene(), ResolvedQuestion("spatial", subject_ids=(0,)))
        # a reference id must index the scene: -1 must not wrap around to
        # the last object, and len(objects) must not escape as an IndexError
        for ref_id in (-1, len(small_scene().objects)):
            with pytest.raises(UnresolvedReferent, match="out of range"):
                oracle_answer(small_scene(), ResolvedQuestion(
                    "spatial", subject_ids=(0,), ref_id=ref_id, relation="left"))

    def test_group_color_requires_consistency(self):
        # a question has exactly one subject, so a group is refused outright
        scene = Scene([
            SceneObject("dog", "red", "small", (0, 0)),
            SceneObject("dog", "blue", "small", (1, 0)),
        ] + small_scene().objects[1:], grid=4)
        with pytest.raises(UnresolvedReferent):
            oracle_answer(scene, ResolvedQuestion("color_of", subject_ids=(0, 1)))


# form -> its words, "{}" standing for the subject: "the <category>" with no
# pronoun, else the pronoun; exists and count questions have no subject
WORDING = [
    (ResolvedQuestion("exists", category="dog", color="red"), "is there a red dog"),
    (ResolvedQuestion("count", category="person"), "how many people are there"),
    (ResolvedQuestion("count", color="green"), "how many green things are there"),
    (ResolvedQuestion("color_of", subject_ids=(0,)), "what color is {}"),
    (ResolvedQuestion("size_of", subject_ids=(2,)), "what size is {}"),
    (ResolvedQuestion("spatial", subject_ids=(0,), ref_id=1, relation="left"),
     "is {} left of the tree"),
    (ResolvedQuestion("spatial", subject_ids=(0,), ref_id=1, relation="right"),
     "is {} right of the tree"),
    (ResolvedQuestion("spatial", subject_ids=(2,), ref_id=0, relation="above"),
     "is {} above the dog"),
    (ResolvedQuestion("spatial", subject_ids=(2,), ref_id=0, relation="below"),
     "is {} below the dog"),
]


class TestWording:
    @pytest.mark.parametrize("pronoun", [None, "it", "he"])
    @pytest.mark.parametrize("form,words", WORDING,
                             ids=[w.replace(" {}", "").replace(" ", "_") for _, w in WORDING])
    def test_question_tokens(self, form, words, pronoun):
        scene = small_scene()
        subject = pronoun or (f"the {scene.objects[form.subject_ids[0]].category}"
                              if form.subject_ids else "")
        assert question_tokens(scene, form, pronoun) == words.format(subject).split()

    @pytest.mark.parametrize("require_ambiguity", [False, True])
    def test_group_gets_no_pronoun_round_and_no_draw(self, require_ambiguity):
        # even a group that shares its one color: no template asks about "they"
        scene = Scene([SceneObject("dog", "red", "small", (0, 0)),
                       SceneObject("dog", "red", "big", (1, 0))] + small_scene().objects[1:],
                      grid=4)
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert _pronoun_round(scene, rng, (0, 1), require_ambiguity) is None
        assert rng.bit_generator.state == before


class TestCandidates:
    def test_exactly_one_correct(self):
        rng = np.random.default_rng(0)
        cands, gt = build_candidates("red", "color", 10, rng)
        assert cands.count("red") == 1 and cands[gt] == "red"
        assert len(cands) == 10 and len(set(cands)) == 10

    def test_same_type_distractors_come_first(self):
        rng = np.random.default_rng(1)
        cands, _ = build_candidates("red", "color", 6, rng)
        assert set(COLORS) <= set(cands)

    def test_count_bounds(self):
        with pytest.raises(ValueError):
            build_candidates("yes", "yesno", 1, np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_candidates("yes", "yesno", 99, np.random.default_rng(0))


class TestDialog:
    def test_deterministic(self):
        scene = generate_scene(np.random.default_rng([3, 0]), 6)
        a = generate_dialog(scene, np.random.default_rng([3, 1]), 4, 10)
        b = generate_dialog(scene, np.random.default_rng([3, 1]), 4, 10)
        assert instance_to_dict(a) == instance_to_dict(b)

    def test_final_round_is_pronoun_with_established_referent(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            scene = generate_scene(rng, 6)
            inst = generate_dialog(scene, rng, 4, 10)
            assert inst.current.pronoun
            assert inst.current.subject_ids == inst.rounds[-2].subject_ids
            assert any(p in inst.current.question for p in ("it", "he"))

    def test_ground_truth_round_trips_through_oracle(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            scene = generate_scene(rng, 6)
            inst = generate_dialog(scene, rng, 4, 10)
            assert inst.candidates[inst.gt] == oracle_answer(scene, inst.current.form)

    def test_history_answers_are_oracle_answers(self):
        rng = np.random.default_rng(5)
        scene = generate_scene(rng, 6)
        inst = generate_dialog(scene, rng, 5, 10)
        for r in inst.rounds:
            assert r.answer == oracle_answer(scene, r.form)

    def test_rounds_bounds_validated(self):
        rng = np.random.default_rng(0)
        scene = generate_scene(rng, 6)
        with pytest.raises(ValueError):
            generate_dialog(scene, rng, 1, 10)

    def test_unsupportable_scene_rejected(self):
        # a single repeated category breaks unique-referent templates only if
        # colors also repeat, which the scene generator forbids; force a scene
        # where no pronoun ambiguity exists: all objects identical in color+size
        scene = Scene([
            SceneObject("dog", "red", "small", (0, 0)),
            SceneObject("cat", "red", "small", (0, 0)),
            SceneObject("ball", "red", "small", (0, 0)),
        ], grid=4)
        with pytest.raises(GenerationError):
            generate_dialog(scene, np.random.default_rng(0), 3, 10)


class TestHistoryNecessity:
    def test_pronoun_questions_ambiguous_without_history(self):
        manifest = CorpusManifest(seed=11, splits={"train": 30, "val": 0, "test": 0})
        corpus = generate_corpus(manifest)
        for inst in corpus["train"]:
            assert inst.current.pronoun
            pron = next(p for p in ("he", "it") if p in inst.current.question)
            answers = binding_answers(inst.scene, inst.current.form, pron)
            consistent = answers & set(inst.candidates)
            assert len(consistent) >= 2, (
                f"dialog {inst.dialog_id} stays unambiguous without history")


class TestCorpus:
    def test_corpus_is_pure_function_of_manifest(self, tmp_path):
        manifest = CorpusManifest(seed=3, splits={"train": 8, "val": 3, "test": 2})
        for out in ("a", "b"):
            save_corpus(generate_corpus(manifest), manifest, tmp_path / out)
        for split in ("train", "val", "test"):
            assert (tmp_path / "a" / f"{split}.jsonl").read_bytes() == (
                tmp_path / "b" / f"{split}.jsonl").read_bytes()

    def test_split_sizes_and_disjoint_ids(self):
        manifest = CorpusManifest(seed=4, splits={"train": 5, "val": 4, "test": 3})
        corpus = generate_corpus(manifest)
        ids = [i.dialog_id for split in corpus.values() for i in split]
        assert len(ids) == 12 and len(set(ids)) == 12
        assert len(corpus["train"]) == 5 and len(corpus["test"]) == 3

    def test_round_trip_through_json(self):
        manifest = CorpusManifest(seed=5, splits={"train": 3, "val": 0, "test": 0})
        corpus = generate_corpus(manifest)
        for inst in corpus["train"]:
            back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
            assert instance_to_dict(back) == instance_to_dict(inst)
            np.testing.assert_array_equal(back.scene.features(), inst.scene.features())

    def test_schema_fields(self):
        manifest = CorpusManifest(seed=6, splits={"train": 1, "val": 0, "test": 0})
        inst = generate_corpus(manifest)["train"][0]
        doc = instance_to_dict(inst)
        assert set(doc) >= {"scene", "caption", "history", "question", "candidates", "gt"}
        assert set(doc["scene"]["objects"][0]) == {"cat", "color", "size", "cell"}
        assert set(doc["meta"]) == {"round_subjects", "round_forms"}
        assert all(len(pair) == 2 for pair in doc["history"])
        assert isinstance(doc["gt"], int)

    def test_line_with_derived_fields_loads_the_same(self):
        # corpora written before the derived copies were dropped still load
        manifest = CorpusManifest(seed=6, splits={"train": 2, "val": 0, "test": 0})
        for inst in generate_corpus(manifest)["train"]:
            doc = instance_to_dict(inst)
            old = json.loads(json.dumps(doc))
            for obj, o in zip(old["scene"]["objects"], inst.scene.objects):
                obj["feat"] = encode_object(o, inst.scene.grid).tolist()
            old["meta"]["form"] = inst.current.form.to_dict()
            old["meta"]["round_answers"] = [r.answer for r in inst.rounds]
            old["meta"]["pronoun"] = inst.current.pronoun
            assert instance_from_dict(old) == instance_from_dict(doc)

    def test_history_pronoun_rounds_survive_save_and_load(self, tmp_path):
        manifest = CorpusManifest(seed=6, splits={"train": 20, "val": 0, "test": 0})
        corpus = generate_corpus(manifest)
        assert any(r.pronoun for inst in corpus["train"] for r in inst.history)
        save_corpus(corpus, manifest, tmp_path)
        assert load_split(tmp_path, "train") == corpus["train"]

    def test_save_refuses_overwrite_without_force(self, tmp_path):
        manifest = CorpusManifest(seed=7, splits={"train": 1, "val": 0, "test": 0})
        corpus = generate_corpus(manifest)
        save_corpus(corpus, manifest, tmp_path)
        with pytest.raises(FileExistsError):
            save_corpus(corpus, manifest, tmp_path)
        save_corpus(corpus, manifest, tmp_path, force=True)

    def test_load_round_trip(self, tmp_path):
        manifest = CorpusManifest(seed=8, splits={"train": 4, "val": 2, "test": 1})
        corpus = generate_corpus(manifest)
        save_corpus(corpus, manifest, tmp_path)
        loaded = load_split(tmp_path, "train")
        assert [instance_to_dict(i) for i in loaded] == [
            instance_to_dict(i) for i in corpus["train"]]
        assert CorpusManifest.from_file(tmp_path / "manifest.json").seed == 8

    def test_oracle_consistency_over_whole_corpus(self):
        manifest = CorpusManifest(seed=9, splits={"train": 25, "val": 10, "test": 5})
        corpus = generate_corpus(manifest)
        for split in corpus.values():
            for inst in split:
                assert inst.candidates[inst.gt] == oracle_answer(
                    inst.scene, inst.current.form)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestCorpusLineFuzz:
    """One field of a generated line replaced: the line either fails to load
    with ``path:line``, or it encodes to non-empty PAD-free id lists that
    evaluate to finite logits, under the model's vocab and one built from
    the line itself (as ``cag train`` builds it)."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(data=st.data())
    def test_line_loads_clean_or_fails_named(self, tiny_corpus, tiny_setup, fuzz_dir, data):
        _, vocab, model, _ = tiny_setup
        # a copy: instance_to_dict shares the instance's lists
        line = json.loads(json.dumps(instance_to_dict(
            data.draw(st.sampled_from(tiny_corpus["val"])))))
        replace_one_field(line, data)
        split = fuzz_dir / "val.jsonl"
        split.write_text(json.dumps(line) + "\n")
        try:
            (inst,) = load_split(fuzz_dir, "val")
        except ValueError as exc:
            assert str(exc).startswith(f"{split}:1: ")
            return
        for v in (vocab, build_vocab([inst])):
            enc = encode_instance(inst, v)
            seqs = [enc.caption_ids, enc.question_ids, *enc.round_ids,
                    *map(list, enc.candidate_ids)]
            assert all(seqs) and not any(0 in s for s in seqs)
        _, (logits,) = evaluate(model, [encode_instance(inst, vocab)], collect_logits=True)
        assert np.isfinite(logits).all()
