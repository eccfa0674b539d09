"""Report bytes of generated instances: the sha256 of every report is pinned.

The preset sweep pins only the seven bundled files, and the benchmark checks
only exit codes on generated ones.  Here twelve seeded passing instances
(alternately with a nontrivial ``htilde``), each with one dual pair and one
feasible path, run through the checks that read ``assumption_report``,
``eval_Fhat`` and ``subdiff_check``; each report, without its timestamp, must
keep the recorded digest, so a refactor cannot reorder or change a list
unnoticed.  Most draws have a -inf interchange infimum, so two seeds are such
draws and the other ten are multi-scenario draws with finite infima, whose
reports carry values and a witness.  The bundled presets add the full
assumption report with its ``failing_slots`` and both sides of the
deterministic interchange rule, and the two model presets add the reports of
their own theorems.  A tests-only instance pins the four checks that walk
``Stilde`` where its value at a grid time is narrower than the cell
before it.  The digests were recorded before the slot conditions of
``duality`` were given one definition each; the model-report digests before
the model section came to be parsed at load.

The two sampled checks, ``involution`` and ``recession-support``, report only
counts; so the functions they draw are pinned too, with their conjugates and
the generator state after the last draw.  Both sets of digests were recorded
before ``rand_plconvex`` and ``conjugate_at_slope`` moved to integer
arithmetic.

The third sampled check, ``currency``, reports the largest sampled pairing
of each member dual, which is 0 for both member duals of the bundled
preset.  A tests-only currency file whose member duals pair strictly
negatively with every generator pins that value per seed; its digests were
recorded before the check scored its samples through the integer pairing
table.
"""

import hashlib
import json
import random

import pytest

from conftest import preset

from cadlagconvex import cli
from cadlagconvex.duality import assumption_report, interchange_det
from cadlagconvex.finmodels import currency_model
from cadlagconvex.generators import (rand_feasible_path, rand_finite_dual,
                                     rand_passing_instance, rand_plconvex)
from cadlagconvex.presets import PRESET_NAMES, bundled_instance_path
from cadlagconvex.serialize import InstanceDoc, dump_instance, dump_report, load_instance

CHECKS = (("interchange-stoch", "--form", "F"), ("interchange-stoch", "--form", "Fhat"),
          ("subdiff",), ("conjugate",), ("support-ds",))

SEEDS = (0, 1, 19, 21, 28, 39, 42, 43, 55, 56, 59, 66)

# (exit code, sha256 of the report without its timestamp) per seed, in CHECKS order
GENERATED_SHA256 = {
    0: (
        (0, "c0b70456d1043acc0075f3ed39f69416ff57e327957a9d813fb22fc47ef4e887"),
        (0, "ae907148dbcd486ca09c4c26d63cff0b61a503aae888907c673f9eb4a8184576"),
        (0, "b1713d246295a393e27c62807004639db0b9d2e5aa47f99b6495365cfbed3a64"),
        (0, "b5b025269535ee428775fa7f54a8ea69b9c644d712ccb83edc00b30fdc5007a8"),
        (1, "c823541e0eaad01cb9c518918c81d6f1488ba8ff66c94d69896fc75136828f12"),
    ),
    1: (
        (0, "c0b70456d1043acc0075f3ed39f69416ff57e327957a9d813fb22fc47ef4e887"),
        (0, "ae907148dbcd486ca09c4c26d63cff0b61a503aae888907c673f9eb4a8184576"),
        (0, "b621afbb85bdec247f81a0372893b28dc7281b5f582b23a0f9e3483d7e5bbb23"),
        (0, "c10af43a3991d43e0aca868deeae707e83d2317177c60756c551a1ecf15d2481"),
        (1, "abb991b4cc4a7196729ccc54814fc64d6ccf906769f1315e299293a50e11929e"),
    ),
    19: (
        (0, "4e39776815f0d038b8408070ef09b682d1ff1c654519e037934e68cd7629691d"),
        (0, "62340a0f2595b742722d6a5f8d435b2dc2d1d925bd899cc753c179b092876e5f"),
        (0, "89f2a1e5126642689dde9083c4d8ed9328cd4c0f923be974f7c83804039e84b8"),
        (0, "9880a8f2730214a85ae732eb819466a6a418786cb170c62e2df8e55053eb4f24"),
        (1, "8adea9fd63b691bd1df5f180d2bffabff70fa70855cdb956d235999404ee33c9"),
    ),
    21: (
        (0, "e0b2e10f8b0e117f994b6fbfba70695ced1fdebcd83823acec3196636c3fd2b7"),
        (0, "5c4d0f21dbdc64298eee9443526ef6b1946b9f3f73ecb3c197194dd3a04471b7"),
        (0, "242fb257a423cdf3728de481d58a0cd02afe46aec9fbf18fe75d020f969af1ec"),
        (0, "9d8f47269c9f01c3e1f675f7ed2bddb7d041fb31fd4201a939428070e33908dc"),
        (1, "b9040a607769802ba2c512a4074ba06d5fd70d4043b12c2f4e8592bc8115fea8"),
    ),
    28: (
        (0, "02ac4e497d96827417b75aac4e4b52e04316e21aea286f9aaed73a3b8c48f2b8"),
        (0, "29f3e70596bfc9e3e66b4f12c8124279975e4bfaa8602b30298a5f36b263b18c"),
        (0, "3c6ece03ee47b89d8a9653173d6f08b1ecfb6bbf41c7db77f4cb9aca74f71ba4"),
        (0, "ceaf33e9e8441787d710551aca3dd2c18764f72e77702c6da4de382bc759e963"),
        (0, "223c7883eb34e097736540e1a830823d11935d4315d515dd872313b4202af4fb"),
    ),
    39: (
        (0, "2170d9806f104f39db5f084f610423f24a42c887f46f45dd346ab17d5dcd5e00"),
        (0, "adafb7f46ac571c1bb414af3c7a8fd2cc962f3b0c5463773c55cecaa21136507"),
        (0, "91ae360f8e5b20e3cd5a81ed2d0cd2f9f19578396e3cfe38bd8b90a18b3c76fe"),
        (0, "950bb4228a95187ac92e08f05d294a34709173db329712ef097b91459c5d2b9e"),
        (0, "c27c30b664be2f38695c0913a1011945198bc8db1a7d58dbc0205ec19843ab90"),
    ),
    42: (
        (0, "87926648205e9d26fe1ffc70ba211ac2069238e0509a6e80f638f19e96ce14ef"),
        (0, "245047ff58d619d6a418bc313f7fba91b001f5137809ddda85f8d4741175ee24"),
        (0, "5d628d65e77e75dd396361b2c939c0b566fe271db97e5e973bebe23a24579086"),
        (0, "62d18f90e0c262b9fcb8312abfc23f732048794dee5fd91befa52fa56f09952a"),
        (0, "e23be6f7a835136dfdbcf32619011b9e2b2406270f002bd29fe4baaa7ce7188b"),
    ),
    43: (
        (0, "0052df1d5bec44da3957536f08b093a18ac9e3e597670893b1191888e33bf545"),
        (0, "b50538861f3d8508b2e0af46a7d7b7d3633667b87fb9faa1a8c869e446489625"),
        (0, "91ae360f8e5b20e3cd5a81ed2d0cd2f9f19578396e3cfe38bd8b90a18b3c76fe"),
        (0, "83e3ba0172b1539f09fb803b4ea251e06fe79028afa5d9ee32b8b7859a25cc53"),
        (1, "664b51454ecb9062dd332deb13d8bfedd5210c447d56272f33d7bc774af93e28"),
    ),
    55: (
        (0, "7b1b552ac6241ebd692ccc4fcf8cef743e40f0be01e35192704737aff2aab012"),
        (0, "abde726b039c736b730a6df88dcb04fc99ae6323930ee16f8282ea3628cdadd6"),
        (0, "1c9969c3938c19897f997d315fb975a3c7aba07fb2b02bc85c6fecf310dde2b8"),
        (0, "12e4b985c6d1b0d57686664bb3d085de6ba10e00f3cc0456802d3f8f2ce4afa1"),
        (0, "c8df158edaf1bf2efa894532d2c1ed40d51b8086e284ebececb658150a2d1bc9"),
    ),
    56: (
        (0, "4ff314fe195e81b99d97929f8bc32455fb93388d89ccdfbadb345f7b54edcb40"),
        (0, "8b9698e22cb91e898f4f663c8b9c02744ed67deff67fc1f3a163612098aeb213"),
        (0, "417f57aa8a419b264b83e3eb063f0f9e82611e3072ba6e73e8261d4be09b7e7f"),
        (0, "ec4ef2aff953706220b71537b7c4ffa908e2d3e487dbbbd66886581aecef58e1"),
        (0, "e33691e63cf2e46056e0eae5e4a473d1e8d2ca6d541eeaff4c26a0da95c49b58"),
    ),
    59: (
        (0, "c08ffc36a51dfcf3f39b6f8f0e66e5f780b016c74b0cf309771d1ec66fdc70b0"),
        (0, "2c96584aedfd2f10d354afe3ebf3ea825484b1c13c3adf28cf1890575c816735"),
        (0, "d50d6fc6df1d83c79650b8d73ea35b9cb6b362021c3a3ebe4d7b0639fa5b1619"),
        (0, "774129cb72e78cf26a07f0f77facccb845a6ac4b265c8cf9da95718f019900c6"),
        (1, "c2186718bfdfc363e07d53632121dc84bf5a2c84a8d2159d5413ca1b0dbdfb14"),
    ),
    66: (
        (0, "c31d2355fe7adf7c7ce84215cdfb20b778a7879d78d1c7cf1ed60cf5a7d21e8f"),
        (0, "bb04616debd1ee6c0dd65baaf34dd29b1669419b96c404621d5b8e0c9b6af318"),
        (0, "91ae360f8e5b20e3cd5a81ed2d0cd2f9f19578396e3cfe38bd8b90a18b3c76fe"),
        (0, "98f154a2c8053658b9f8146cc8caca82cd29b315fa173f1d59bcfc97708708cd"),
        (0, "c7e2bb128f7c74a805a18d94d4ca4d140a18aec4e284eb12375f3c1e9cbca2ea"),
    ),
}

# sha256 of assumption_report and of interchange_det on each side (or the
# error it raises), per preset
PRESET_SHA256 = {
    "basic": (
        "2489cdf52b428ea5ae57b18e2eb6b5177aade1d22033b1909ed612e42b3269b9",
        "be8e291c8d241b318f66b5811d7d467557ae824b3fd182609139bd50421c0a99",
        "be8e291c8d241b318f66b5811d7d467557ae824b3fd182609139bd50421c0a99",
    ),
    "deterministic": (
        "f545cf3e41ef87fee65069222f531e1c520dcf139121808bfe7c31c68cbada33",
        "dae3d8eded9fbd9e641410d727de477561a03d41dbf354df2f2a5d08f2558da0",
        "5b50f9c8592f1c15c55ed226f6c260b1e10910a3dfd2137ad48feb3f1b814255",
    ),
    "michael-violation": (
        "a72f68046e32f31a3828807a5b94294aa99871d942f32a54e297b6a8970235d0",
        "24ae75e6f05d67ea426db2f4f663942b675aa7c7148185cc97a5e95a7f74b3da",
        "5b50f9c8592f1c15c55ed226f6c260b1e10910a3dfd2137ad48feb3f1b814255",
    ),
    "obstacle": (
        "2489cdf52b428ea5ae57b18e2eb6b5177aade1d22033b1909ed612e42b3269b9",
        "be8e291c8d241b318f66b5811d7d467557ae824b3fd182609139bd50421c0a99",
        "be8e291c8d241b318f66b5811d7d467557ae824b3fd182609139bd50421c0a99",
    ),
    "bidask": (
        "2489cdf52b428ea5ae57b18e2eb6b5177aade1d22033b1909ed612e42b3269b9",
        "be8e291c8d241b318f66b5811d7d467557ae824b3fd182609139bd50421c0a99",
        "be8e291c8d241b318f66b5811d7d467557ae824b3fd182609139bd50421c0a99",
    ),
    "currency": (
        "f545cf3e41ef87fee65069222f531e1c520dcf139121808bfe7c31c68cbada33",
        "bb8989de5d382362b698d0860d7b43298f49724ce6af9b523df14c66bcd8c8ae",
        "5b50f9c8592f1c15c55ed226f6c260b1e10910a3dfd2137ad48feb3f1b814255",
    ),
    "cs": (
        "f545cf3e41ef87fee65069222f531e1c520dcf139121808bfe7c31c68cbada33",
        "bb8989de5d382362b698d0860d7b43298f49724ce6af9b523df14c66bcd8c8ae",
        "5b50f9c8592f1c15c55ed226f6c260b1e10910a3dfd2137ad48feb3f1b814255",
    ),
}

# (exit code, sha256 of the report without its timestamp) of each model
# preset's own theorem, with the default --seed and --count
MODEL_SHA256 = {
    ("cs", "cs-regularity"): (
        0, "833a28b3768d3bc61157d464a2039931fdcc0d7ca6bbd696e59c5120df73409d"),
    ("currency", "currency"): (
        0, "5127c027072e6684fca3d5f596df3185c3f6c247bafad4a61e8d869eebc0c6c6"),
}


# (exit code, sha256 of the report without its timestamp) of each sampled
# check on basic, per --seed, with --count 300
SAMPLED_SHA256 = {
    "involution": (
        0, "d7da31cc9e4e676d1f909bb046af2dced6be72b93063d7b32315f429e3a1e50a"),
    "recession-support": (
        0, "6b0000c621e918d8b47f92c18cd0f0108fab61ea2bf836e451c2753a020fb5ff"),
}
SAMPLED_SEEDS = (1, 2, 3)

# sha256 of the typed fields of 300 rand_plconvex draws and of their
# conjugates, then the generator state, per seed
DRAWS_SHA256 = {
    1: "2004a7d3487098c5c1802f09a52bd9fad63a06a764c07b5368e4c9e4036c7b22",
    2: "81c9838eb7932a5c14078dffef4aedb4f70ab7a24647ff6e380a45188a1a6419",
    3: "069a336efa1a331e11bc5a9a658c963ecd721ac82ed4509d5988b472890448c7",
}

# A deterministic instance whose Stilde(t_1) = [-1, 1] is narrower than the
# cell value [-2, 2] before it, and whose htilde_2 has mass, so its reports
# depend on the last fine slot of each refined cell reading Stilde at the
# cell's right end: read from the cell value instead, the lattice oracle
# gives 55/8 against the closed form's 31/8 (conjugate) and 43/4 against
# 31/4 (support-ds).
ABS_2 = {"dom": ["-2", "2"], "breakpoints": ["0"], "slopes": ["-1", "1"], "anchor": ["0", "0"]}
ODD_SLOT_DOC = {
    "grid": ["0", "1", "2"],
    "tree": {"scenarios": ["w"], "probs": {"w": "1"}, "partitions": [[["w"]]] * 3},
    "integrand_h": {"flag": "optional", "functions": {"w": [ABS_2] * 3}},
    "integrand_htilde": {"flag": "predictable", "functions": {"w": [
        {"dom": ["0", "0"], "breakpoints": [], "slopes": ["0"], "anchor": ["0", "0"]},
        *[{"dom": ["-1", "1"], "breakpoints": ["1/2"], "slopes": ["-1", "2"],
           "anchor": ["1/2", "0"]}] * 2]}},
    "mu": {"w": ["1", "1", "1"]},
    "mutilde": {"w": ["0", "0", "1"]},
    "setmap_S": {"w": {"point_vals": [["-2", "2"]] * 3, "open_vals": [["-2", "2"]] * 2}},
    "setmap_Stilde": {"w": {"point_vals": [["0", "0"], ["-1", "1"], ["-1", "1"]],
                            "open_vals": [["-2", "2"]] * 2}},
    "duals": [{"u": {"w": ["1/2", "3/2", "1/4"]}, "ut": {"w": ["0", "3", "-1/4"]}}],
    "paths": [{"w": ["1/2", "1/2", "1/4"]}],
    "model": None,
}

# (exit code, sha256 of the report without its timestamp) per check on it
ODD_SLOT_SHA256 = {
    ("conjugate",): (
        0, "e444273dd11425c531df71de6f23fcc6612413d27816ecfcfbd210d4ba330b3c"),
    ("support-ds",): (
        0, "708058c1e9ce7b33e615390f4c3a82e2b1c1260a2b4dfdd03a75d23ed692abd1"),
    ("interchange-stoch", "--form", "Fhat"): (
        0, "5cc00863f4a47d5fda654c71152f1cd3cd6710e0532eb23a8f4c9e9de12e4c98"),
    ("subdiff",): (
        0, "510f0b495cf152811afef3da42f2373818365d89d1985cb809b51acd45fa828d"),
}


# A tests-only currency file on four grid times whose solvency cones change
# from slot to slot.  Duals 0 and 2 are members, and each pairs strictly
# negatively with every generator of every attainable cone, so the largest
# sampled pairing is negative and depends on every coefficient drawn; dual 0
# also carries an atom at t_0 of its predictable measure, which pairs with
# nothing.  Dual 1 is no member and draws nothing.
ZERO_FN = {"dom": ["-inf", "inf"], "breakpoints": [], "slopes": ["0"], "anchor": ["0", "0"]}
PINNED_FN = {"dom": ["0", "0"], "breakpoints": [], "slopes": ["0"], "anchor": ["0", "0"]}
LINE = ["-inf", "inf"]
CONES = ({"dim": 2, "generators": [["-1", "0"], ["0", "-1"]]},
         {"dim": 2, "generators": [["-2", "-1"], ["-1", "-2"]]},
         {"dim": 2, "generators": [["-3", "-1"], ["1", "-2"]]},
         {"dim": 2, "generators": [["-1", "0"], ["-1", "-1"]]})
CURRENCY_DOC = {
    "grid": ["0", "1", "2", "3"],
    "tree": {"scenarios": ["w"], "probs": {"w": "1"}, "partitions": [[["w"]]] * 4},
    "integrand_h": {"flag": "optional", "functions": {"w": [ZERO_FN] * 4}},
    "integrand_htilde": {"flag": "predictable", "functions": {"w": [PINNED_FN] + [ZERO_FN] * 3}},
    "mu": {"w": ["0"] * 4},
    "mutilde": {"w": ["0"] * 4},
    "setmap_S": {"w": {"point_vals": [LINE] * 4, "open_vals": [LINE] * 3}},
    "setmap_Stilde": {"w": {"point_vals": [["0", "0"]] + [LINE] * 3, "open_vals": [LINE] * 3}},
    "duals": [],
    "paths": [],
    "model": {"type": "currency",
              "solvency": {"point_cones": list(CONES), "cell_cones": list(CONES[:3])},
              "duals": [
                  {"u": [["-1/2", "-1/3"], ["-3/2", "-5/4"], ["-2", "-3/2"], ["-7/3", "-1/2"]],
                   "ut": [["5", "7"], ["-1/4", "0"], ["-1", "-1"], ["0", "-1/5"]]},
                  {"u": [["1/2", "0"], ["0", "0"], ["0", "0"], ["0", "0"]],
                   "ut": [["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]},
                  {"u": [["-1/7", "-2/7"], ["-1", "-1"], ["-1", "-3/2"], ["-1", "-1/3"]],
                   "ut": [["0", "0"], ["0", "0"], ["-1/6", "-1/6"], ["-2", "-2/3"]]},
              ]},
}

# (exit code, sha256 of the report without its timestamp) of
# ``verify --theorem currency --count 50`` on it, per --seed
CURRENCY_SHA256 = {
    1: (0, "6e37da38bd45bda10c229c14a3cc99ea88203cfb37f1d46513a4d33da93996fe"),
    2: (0, "cab5b2242a294874c2a304b7b6b1f016de30d32e4e0ac5fe1d10f0ff772d213f"),
    3: (0, "8f10e806bc8dd2b124615e531fa773dca3b3789c640c4ddbbf24e3218b4fafaa"),
}

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def generated_doc(seed: int) -> InstanceDoc:
    rng = random.Random(seed)
    inst = rand_passing_instance(rng, with_htilde=SEEDS.index(seed) % 2 == 0)
    return InstanceDoc(inst, [rand_finite_dual(rng, inst)], [rand_feasible_path(rng, inst)], None)


def verify_outcome(path: str, check, capsys) -> tuple:
    code = cli.main(["verify", path, "--theorem", *check])
    report = json.loads(capsys.readouterr().out)
    del report["timestamp"]
    return code, sha256(dump_report(report, None))


def generated_outcomes(seed: int, tmp_path, capsys) -> list:
    path = tmp_path / f"gen{seed}.json"
    dump_instance(generated_doc(seed), str(path))
    return [verify_outcome(str(path), check, capsys) for check in CHECKS]


def preset_digests(name: str) -> list:
    inst = preset(name).instance
    out = [sha256(dump_report(assumption_report(inst), None))]
    for side in ("cadlag", "caglad"):
        try:
            rep = interchange_det(inst, side=side)
        except ValueError as exc:
            rep = {"error": str(exc)}
        out.append(sha256(dump_report(rep, None)))
    return out


def test_every_seed_and_preset_is_pinned():
    assert tuple(GENERATED_SHA256) == SEEDS
    assert sorted(PRESET_SHA256) == sorted(PRESET_NAMES)


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_reports_keep_their_bytes(seed, tmp_path, capsys):
    assert generated_outcomes(seed, tmp_path, capsys) == \
        [tuple(x) for x in GENERATED_SHA256[seed]]


@pytest.mark.parametrize("name, theorem", sorted(MODEL_SHA256))
def test_model_reports_keep_their_bytes(name, theorem, capsys):
    assert verify_outcome(bundled_instance_path(name), (theorem,), capsys) == \
        MODEL_SHA256[name, theorem]


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_assumption_and_interchange_reports_keep_their_bytes(name):
    assert preset_digests(name) == list(PRESET_SHA256[name])


def typed(value) -> str:
    if isinstance(value, tuple):
        return tuple(typed(x) for x in value)
    return type(value).__name__ + ":" + str(value)


def typed_fields(fn) -> tuple:
    return typed((fn.dom_lo, fn.dom_hi, fn.breakpoints, fn.slopes, fn.anchor_x, fn.anchor_val))


@pytest.mark.parametrize("theorem", sorted(SAMPLED_SHA256))
@pytest.mark.parametrize("seed", SAMPLED_SEEDS)
def test_sampled_check_reports_keep_their_bytes(theorem, seed, capsys):
    check = (theorem, "--count", "300", "--seed", str(seed))
    assert verify_outcome(bundled_instance_path("basic"), check, capsys) == \
        SAMPLED_SHA256[theorem]


@pytest.mark.parametrize("seed", SAMPLED_SEEDS)
def test_sampled_draws_keep_their_fields(seed):
    rng = random.Random(seed)
    fns = [rand_plconvex(rng) for _ in range(300)]
    text = repr([(typed_fields(fn), typed_fields(fn.conjugate())) for fn in fns]
                + [rng.getstate()])
    assert sha256(text) == DRAWS_SHA256[seed]


@pytest.mark.parametrize("check", sorted(ODD_SLOT_SHA256))
def test_odd_slot_stilde_reports_keep_their_bytes(check, tmp_path, capsys):
    path = tmp_path / "odd-slot.json"
    path.write_text(json.dumps(ODD_SLOT_DOC))
    assert assumption_report(load_instance(str(path)).instance)["all_ok"]
    assert verify_outcome(str(path), check, capsys) == ODD_SLOT_SHA256[check]


@pytest.fixture
def currency_doc_path(tmp_path):
    path = tmp_path / "currency-negative.json"
    path.write_text(json.dumps(CURRENCY_DOC))
    return str(path)


def test_currency_doc_members_pair_negatively_with_every_generator(currency_doc_path):
    parts = load_instance(currency_doc_path).model.parts
    cm = currency_model(parts["solvency"])
    members = []
    for u, ut in parts["duals"]:
        members.append(cm.is_member(u, ut)["member"])
        if members[-1]:
            table = [w for row in cm.generator_pairings(u, ut) for w in row]
            assert len(table) == 8 and all(w < 0 for w in table)
    assert members == [True, False, True]
    assert len(set(CURRENCY_SHA256.values())) == len(CURRENCY_SHA256)


@pytest.mark.parametrize("seed", sorted(CURRENCY_SHA256))
def test_currency_sampled_reports_keep_their_bytes(seed, currency_doc_path, capsys):
    check = ("currency", "--count", "50", "--seed", str(seed))
    assert verify_outcome(currency_doc_path, check, capsys) == CURRENCY_SHA256[seed]
