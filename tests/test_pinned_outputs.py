"""Serializer bytes and verification reports, pinned as digests.

The digests were recorded from the Counter-of-tuples verifier that preceded
the integer-table one, so any change in a serialized scheme, a verdict, a
witness, exact_zero or the leakage (to 12 places) shows up here.  The
crt_equal/7 digests (report, id table and codebook) were recorded from the
per-atom crt-equal encoder that preceded the array one; the id table is
each code's rank in the codebook, the ascending distinct codes.
"""

import hashlib
import json

import numpy as np
import pytest

from confuse.expansion import FunctionTable, equal_table, search_expansions
from confuse.gallery import GALLERY
from confuse.schemes import (
    crt_equal_scheme,
    load_custom_scheme,
    optimize_additive_randomness,
    row_mask_baseline,
    scheme_from_expansion,
    serialize_scheme,
)
from confuse.verify import _codewords, _enc_tables, verify_scheme


def _pinned_gamma_equal3():
    scheme = scheme_from_expansion(GALLERY["equal3"].expansion())
    scheme.atoms = [(1, z) for z in range(3)]
    return scheme, GALLERY["equal3"].table


def _flipped_dec_baseline():
    f = FunctionTable.from_rows([[0, 1, 2, 0], [1, 2, 0, 1], [2, 0, 1, 2], [0, 0, 1, 2]])
    broken = serialize_scheme(row_mask_baseline(f))
    x1, x2 = broken["enc1"][0][0], broken["enc2"][0][0]
    row = next(r for r in broken["dec"] if r["x1"] == x1 and r["x2"] == x2)
    row["f"] = (row["f"] + 1) % f.output_count
    return load_custom_scheme(broken), f


def _weighted_and2():
    obj = serialize_scheme(scheme_from_expansion(GALLERY["and2"].expansion()))
    for i, row in enumerate(obj["z_support"]):
        row["weight"] = i % 3 + 1
    return load_custom_scheme(obj), GALLERY["and2"].table


def _case_builders():
    """name -> () -> (scheme, table); each call builds a fresh scheme."""
    cases = {}
    for name, ex in GALLERY.items():
        f = ex.table
        exps = {"published": ex.expansion}
        exps["searched"] = lambda f=f: search_expansions(f, 16, limit=1)[0][1]
        for origin, exp in exps.items():
            cases[f"{name}/{origin}/plain"] = lambda exp=exp, f=f: (scheme_from_expansion(exp()), f)
            cases[f"{name}/{origin}/optimized"] = (
                lambda exp=exp, f=f: (optimize_additive_randomness(exp()), f)
            )
        cases[f"{name}/baseline"] = lambda f=f: (row_mask_baseline(f), f)
    for m in range(2, 7):
        cases[f"crt_equal/{m}"] = lambda m=m: (crt_equal_scheme(m), equal_table(m))
    cases["negative/pinned_gamma_equal3"] = _pinned_gamma_equal3
    cases["negative/flipped_dec_baseline"] = _flipped_dec_baseline
    cases["negative/weighted_and2"] = _weighted_and2
    return cases


CASES = _case_builders()


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def outputs(name: str) -> dict:
    """Digests of serialize_scheme and of verify_scheme(...).to_json(), the
    latter with leakage_bits rounded to 12 places."""
    scheme, f = CASES[name]()
    report = verify_scheme(scheme, f).to_json()
    report["leakage_bits"] = round(report["leakage_bits"], 12)
    return {"serialized": _digest(serialize_scheme(scheme)), "report": _digest(report)}


PINNED = {
    "and2/baseline": {
        "serialized": "d7e06708293dd45cb0cd256cdc7d0b6db644c39e8b8d15b89844398ed93cd367",
        "report": "3fec2e804a3be54911f50665567e6376c64d18922abed01ffbb0101e481d8d79",
    },
    "and2/published/optimized": {
        "serialized": "e955a8dde7a160e2276d1ce1eec2077e5c034285b6a3f2a1a7975b462fb950b4",
        "report": "9d7bd07b40f705a9d40a8cb9925d17143ae9a2081b7c841291d3384ac381834b",
    },
    "and2/published/plain": {
        "serialized": "585da1f0356185b26a42fc797131cffc5950455a742838c14cd8dc0fcbe02040",
        "report": "9d7bd07b40f705a9d40a8cb9925d17143ae9a2081b7c841291d3384ac381834b",
    },
    "and2/searched/optimized": {
        "serialized": "e955a8dde7a160e2276d1ce1eec2077e5c034285b6a3f2a1a7975b462fb950b4",
        "report": "9d7bd07b40f705a9d40a8cb9925d17143ae9a2081b7c841291d3384ac381834b",
    },
    "and2/searched/plain": {
        "serialized": "585da1f0356185b26a42fc797131cffc5950455a742838c14cd8dc0fcbe02040",
        "report": "9d7bd07b40f705a9d40a8cb9925d17143ae9a2081b7c841291d3384ac381834b",
    },
    "crt_equal/2": {
        "serialized": "ada2c2a23f2f1c826445edbeaadc8dc540a3d9e725e8697869087836740f4bbe",
        "report": "d4397cc40663cae9cebce31442b5eb5b18b856d9e5e62638aa609ce89bd3e56b",
    },
    "crt_equal/3": {
        "serialized": "37fdcd027b7b6a856ed32c87fb27d25b34c2ade5a303b070ebe1a8f22abbca17",
        "report": "9d7bd07b40f705a9d40a8cb9925d17143ae9a2081b7c841291d3384ac381834b",
    },
    "crt_equal/4": {
        "serialized": "a1e67a762172e618f335ea75c924314defbd1bb202e74b1d71eb9405db7ea687",
        "report": "3fec2e804a3be54911f50665567e6376c64d18922abed01ffbb0101e481d8d79",
    },
    "crt_equal/5": {
        "serialized": "7e32763a72a30f9a2e871d77292081c4acae35237642afa0269cd1b856ea8b1a",
        "report": "4d85161ded5c355f7de03a2bf478774cc842faae5ee2472e921e30bc1937cfe8",
    },
    "crt_equal/6": {
        "serialized": "0a007323cf673f51e148332a0236b8eef2165b82600a6b3c3d6908819f4aa107",
        "report": "b885ab5dbef6084058edbd0d9a2c0a3741eb2270aa4fe0c33d4379325c31f18a",
    },
    "equal3/baseline": {
        "serialized": "ff817afb41e0e1bdd80aff69bc8c45fcef5f3c2caa905c74385546f866f065d6",
        "report": "c1511ab226e6f44a4b7146b07775bcbc392d4d85cccb1ddcbbe518af0d3d2647",
    },
    "equal3/published/optimized": {
        "serialized": "48b0e9801d8b0a72d13546df9d298ac27be2abeedc2b3fa6a43084ad24a55ad1",
        "report": "9d7bd07b40f705a9d40a8cb9925d17143ae9a2081b7c841291d3384ac381834b",
    },
    "equal3/published/plain": {
        "serialized": "c7987ec89d2d8127cc244a9e39a5349c79fca50db33120518709914b909648a2",
        "report": "9d7bd07b40f705a9d40a8cb9925d17143ae9a2081b7c841291d3384ac381834b",
    },
    "equal3/searched/optimized": {
        "serialized": "48b0e9801d8b0a72d13546df9d298ac27be2abeedc2b3fa6a43084ad24a55ad1",
        "report": "9d7bd07b40f705a9d40a8cb9925d17143ae9a2081b7c841291d3384ac381834b",
    },
    "equal3/searched/plain": {
        "serialized": "c7987ec89d2d8127cc244a9e39a5349c79fca50db33120518709914b909648a2",
        "report": "9d7bd07b40f705a9d40a8cb9925d17143ae9a2081b7c841291d3384ac381834b",
    },
    "four_label_2x3/baseline": {
        "serialized": "cd1c07051cee7469d1d66d3547def98c8c2448a584282c006239d97980174a90",
        "report": "948b5a84e32ec77c1695829ca80e7d2f29ff6050dc283c5d9034bd2e6ef02507",
    },
    "four_label_2x3/published/optimized": {
        "serialized": "39688f7823bd8209cf974e4d980593bd4dc43cb66f92f65f9d1d759f45580fe6",
        "report": "a1edd0cafa27e817f4bf9197c5755f8e46e0d51f98bd31815d7796651caff02f",
    },
    "four_label_2x3/published/plain": {
        "serialized": "05efac4aee9e75a9867584430d559371d2a5819a4a510b47b945613644ed06f2",
        "report": "a1edd0cafa27e817f4bf9197c5755f8e46e0d51f98bd31815d7796651caff02f",
    },
    "four_label_2x3/searched/optimized": {
        "serialized": "9fbadfcd0c0508e8d78ae244e09d0f022aa15a31d2584e9e837e6bdaea3ded7f",
        "report": "a1edd0cafa27e817f4bf9197c5755f8e46e0d51f98bd31815d7796651caff02f",
    },
    "four_label_2x3/searched/plain": {
        "serialized": "07c37891bcb42c7f2cd823a995463b29a3b9b70e884d9f34718cc106a29d75d7",
        "report": "a1edd0cafa27e817f4bf9197c5755f8e46e0d51f98bd31815d7796651caff02f",
    },
    "negative/flipped_dec_baseline": {
        "serialized": "49050b7ed739916af88c1d4e02c73c492747468dc4b82d1e3a35caa404448917",
        "report": "3ebf59bc3b8676aff30718ca04f3a4c24b38cdc3e5f4f6208e42b5a10f441437",
    },
    "negative/pinned_gamma_equal3": {
        "serialized": "c16f3ae460c154aed37ed01bfa65a58ffbabf9df43dcc1a00b0449d4d0e162d8",
        "report": "10bbb0a92888725ad71be3e42e855236b0a593912e01774321f1664452e2d1b6",
    },
    "negative/weighted_and2": {
        "serialized": "f12ab4287d8729a8d9730c5dd5cbbf03d166d53d85ef2a2ffa5880acbfec5687",
        "report": "63d677794223a7a6881a49afaf25977826828b7116b8a5192ab583b3762e371f",
    },
    "row_reveal_2x3/baseline": {
        "serialized": "a7412b3ad2cdef23b245af8d705f8197143bdb3118904104c84d8318c9d348c2",
        "report": "3a7f49abdc1a7c01b0869c1da08551abed4933d1be6e8a8e595f50fd449175bb",
    },
    "row_reveal_2x3/published/optimized": {
        "serialized": "75ee29c0a41970cb270d9f47e08f5ef093d6298d5b315f59646d5458212db90f",
        "report": "e47caa85cefb5ed56b7d08e730857193c9a2eb57493bf9e76d618c32a451e399",
    },
    "row_reveal_2x3/published/plain": {
        "serialized": "ea9be1132f003454ed84b59c29e8195caa48e3bbfa436e87dfd1d45fa8e04900",
        "report": "fd0094bb9e12b959f6e6541483c0edb11c3f0af1a11a1cd7195ef0de68c925db",
    },
    "row_reveal_2x3/searched/optimized": {
        "serialized": "b1b6f70aa8db58949af3097b60803076bab4a75de2c36fac2068f98204e2b92e",
        "report": "d771842055a00ebcdd6a57626d3ce9bc76aa0a8b5efe95590f186a4bd71bcbf5",
    },
    "row_reveal_2x3/searched/plain": {
        "serialized": "b40e9f44b7bcedafb4c46978a05e24775ddc48f194ce95f933b228e3c2541980",
        "report": "fd0094bb9e12b959f6e6541483c0edb11c3f0af1a11a1cd7195ef0de68c925db",
    },
    "selected_switch/baseline": {
        "serialized": "7c133d22ded78e7064e52be140f71c5ade8455d2abde28905941c1d7959a9a9d",
        "report": "948b5a84e32ec77c1695829ca80e7d2f29ff6050dc283c5d9034bd2e6ef02507",
    },
    "selected_switch/published/optimized": {
        "serialized": "942ff98510002b79ebc3c252ed686e11fa61190caabdb0d52ea8163837f4ff86",
        "report": "b5333e6214cf4947a26b397b6567c8fb88c51d9ea012580f42523c6dfd63adb0",
    },
    "selected_switch/published/plain": {
        "serialized": "e0726c3a614cb9bf28d64b070ed12ee3c5e2ab0502591a65e28d444a2fcb3548",
        "report": "b885ab5dbef6084058edbd0d9a2c0a3741eb2270aa4fe0c33d4379325c31f18a",
    },
    "selected_switch/searched/optimized": {
        "serialized": "40d3598c427fc794afd56592ecaa6cd97f1de706abb90d7e6b0e258120cdcbb7",
        "report": "b5333e6214cf4947a26b397b6567c8fb88c51d9ea012580f42523c6dfd63adb0",
    },
    "selected_switch/searched/plain": {
        "serialized": "39335806b739bf719911b6cc3c945cb490f541f95d1f65a561ee9be76c97db53",
        "report": "b885ab5dbef6084058edbd0d9a2c0a3741eb2270aa4fe0c33d4379325c31f18a",
    },
    "three_label_2x2/baseline": {
        "serialized": "6677e4f85728c903a161f0700ef12f02436efbaf016d3dfa67ee18d124422742",
        "report": "eb2139281235323acfb5388df2536c2ddb1198b7cc6304e20aa3b8b91c139f9a",
    },
    "three_label_2x2/published/optimized": {
        "serialized": "155be9fc00628ff294ea97462f1ff312e3ee0221826490a98c916e72a5932758",
        "report": "36689a28a74b429c1a0f144b91998b65949bbebf7fa666a816b474a3055ca797",
    },
    "three_label_2x2/published/plain": {
        "serialized": "196d62ce1430346ca2b670e3207ecf79157b2daf488e34ef6eaaa09410c9647d",
        "report": "3fec2e804a3be54911f50665567e6376c64d18922abed01ffbb0101e481d8d79",
    },
    "three_label_2x2/searched/optimized": {
        "serialized": "e711867fdc8f54fca472dab257e4f73bf4a45078e0e860cd7a80e0c75d56a5df",
        "report": "141dd84fb8fa656c64f970c1d7163dffbe20a7002a1dc66284908cb58f99aebf",
    },
    "three_label_2x2/searched/plain": {
        "serialized": "dd68765e6480481a80084c25b47693b28fc080f39532d5f385452c5c6c27eb3d",
        "report": "3fec2e804a3be54911f50665567e6376c64d18922abed01ffbb0101e481d8d79",
    },
    "threshold_2x3/baseline": {
        "serialized": "a033bb39b0bde75293a53cbeb36daa1d0e6756878bbe7af01df997fa0f387b05",
        "report": "3fec2e804a3be54911f50665567e6376c64d18922abed01ffbb0101e481d8d79",
    },
    "threshold_2x3/published/optimized": {
        "serialized": "f3b39a28381be1926c4895de014db557841c7920ee90561eda20233a071d2221",
        "report": "a1edd0cafa27e817f4bf9197c5755f8e46e0d51f98bd31815d7796651caff02f",
    },
    "threshold_2x3/published/plain": {
        "serialized": "f58811ad88f91b5a22616d0cff5c5927886a28220d2fbc6791dc6058315f43b7",
        "report": "a1edd0cafa27e817f4bf9197c5755f8e46e0d51f98bd31815d7796651caff02f",
    },
    "threshold_2x3/searched/optimized": {
        "serialized": "e4f7c76fb5556babdf2f1093e0dd72034e70b8f95941206166d4a148f9ecfe13",
        "report": "a1edd0cafa27e817f4bf9197c5755f8e46e0d51f98bd31815d7796651caff02f",
    },
    "threshold_2x3/searched/plain": {
        "serialized": "539a4afb38af318d61a73ce050c62d1e7f86416ffc62f776f9a3fd38917bb253",
        "report": "a1edd0cafa27e817f4bf9197c5755f8e46e0d51f98bd31815d7796651caff02f",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_pinned_digests(name):
    assert outputs(name) == PINNED[name]


def test_crt_equal_m7_matches_pinned_digests():
    # 211,680 atoms: the serialized form is too large to pin here, so the
    # report is pinned with the tables it is read from
    scheme = crt_equal_scheme(7)
    report = verify_scheme(scheme, equal_table(7)).to_json()
    report["leakage_bits"] = round(report["leakage_bits"], 12)
    t = _enc_tables(scheme)
    book = np.unique(t.codes1)
    ids = np.searchsorted(book, t.codes1).astype(np.int32)
    assert {
        "report": _digest(report),
        "ids1": hashlib.sha256(ids.tobytes()).hexdigest(),
        "book1": _digest(_codewords(book, t.radix1)),
    } == {
        "report": "a1edd0cafa27e817f4bf9197c5755f8e46e0d51f98bd31815d7796651caff02f",
        "ids1": "88845d829b28da561bbf7b5a41bb429c16b4b63536cfd48834b5191f1fba6066",
        "book1": "806e702b9ea0e9ef298a659dab8ecda9f4b0821b36b80e9ce130d4ac55d6c6fa",
    }
