"""`hbgraph stats` output, pinned byte for byte.

The run files in tests/data hold ten sketched runs (m = 16) and one exact
run on `util.small_world(200, 4, 0.05, 3)`. Each case feeds the first R
sketched runs, or R copies of the exact run, to `main(["stats", ...])`
and compares the sha256 of the JSON, the TSV and stdout with digests
taken before the statistics layer was rebuilt around one jackknife. A
digest may change only with a deliberate change to what `stats` reports.
"""

import hashlib
import json
import os

import pytest

from hbgraph.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")

# (run file, R) -> the run set fed to `stats`
RUN_SETS = {
    "sketched-1": ("stats_sketched_runs.json", 1),
    "sketched-2": ("stats_sketched_runs.json", 2),
    "sketched-4": ("stats_sketched_runs.json", 4),
    "sketched-10": ("stats_sketched_runs.json", 10),
    "exact-1": ("stats_exact_run.json", 1),
    "exact-3": ("stats_exact_run.json", 3),
}

FLAGS = {
    "q0.9": [],
    "q0.5": ["--quantile", "0.5"],
    "excl-q0.9": ["--exclude-self-pairs"],
    "excl-q0.5": ["--exclude-self-pairs", "--quantile", "0.5"],
}

# case -> sha256 of (JSON, TSV, stdout)
DIGESTS = {
    "exact-1/excl-q0.5": (
        "b061a75cd24be2ade33c7f77012eadfee5dfd25c4fe06220e6474fff5388330e",
        "e1e7c0317b515c4a9786729354a5803d1b77d77f2e2d32c039af889765c155d7",
        "85813919569e6ab973dbdc92379c654cbf4621dbd8fb696bd230f6e42e909a2e",
    ),
    "exact-1/excl-q0.9": (
        "3f8678c8dd87ed675a3c470566c8adacf0f316acc8c0efad5b81329d93f0dd7e",
        "207fe6fa1cb0e0b62a5479af95d108fbf5059c61214c0e7d3f8f4d6f9607daf2",
        "cb26a9756455efaf1e4808b33d99b3216089114372a37af4e56f80841af7ef70",
    ),
    "exact-1/q0.5": (
        "adc44280525b5237feb822e0eee0842712038c51774ac0a61eb927ebfcc59c0f",
        "689fa27064624f12d4e0a834861edc406aba3b30b333bb8a774156331f2a4f0b",
        "9477d5b95464cddb65c0a51510af675ad69dcaae235ad5671d41c81e9aee9cde",
    ),
    "exact-1/q0.9": (
        "a2686dc5fe8445f40e39092da92988fa03d0461593ca44d6d9f0a60b01d6074f",
        "d684e5deea6f65d2f703e3e98340059b6d9ab90bdb7651fefce9378984e6e6c9",
        "a6a24bcfd2b1f0a5c202a762d8202145903700e855ba4de35a057bc36f20fd88",
    ),
    "exact-3/excl-q0.5": (
        "2bb1dd802cebf2ce2dcb92ea9f85e0e349ecfc5e2b7306079be048da9655d558",
        "def08d9705e4348a427160fc2d55f5718666e3404c4fbe2383649bb4727a85e4",
        "21743e7717383f2035ba7575c64da2b02c7a5f1d097aba5fef6662ee8e844af6",
    ),
    "exact-3/excl-q0.9": (
        "6aebe7eb89d421fc4df1939407d475cc4ed867c7ca8b349f17e52ac99238fbfb",
        "7257a1e65a7ffeff19befe64a89b52846692ff99d3b2ef7902901c6abd7195f6",
        "8e959d6a9b8e854ed5faad712b7fe11537bb75fb4879012ddd9e7bdcce02a36b",
    ),
    "exact-3/q0.5": (
        "287a1b44461d2fcc318ae8bf214d482da3790bc5c745bce91975eb22aeefbdf3",
        "2a465c392879da5051f39542e6808239312504288b5922948cfa709d729c233b",
        "b020e4bb3639bb621f70686801d21c777d7a94959bd677fcf11cae8c8079faad",
    ),
    "exact-3/q0.9": (
        "b8481ad17bc012ef52fafbeade903463cabbb2a806b025c4f4eab351b2cbfc45",
        "d2684bf5b2921c146b13613025e5c317d9bbe6f87e8dfcbbb663d174a0dab648",
        "ab1d1c9fe57baeb343535ca143e4420fd471928ca3e22d728b89b0c181e90613",
    ),
    "sketched-1/excl-q0.5": (
        "db3b9302a4179b68579c866dde2272fd3d2b1f084a9477ac3173a1b17cbbc428",
        "106ef29e772532e6adc7090a2a9cf23842558c81e665c56b1fc882addd423a50",
        "c7a7a821ddd9b9aca9d69f041d484176e26ff0a391f04fa13f836c7da9071cae",
    ),
    "sketched-1/excl-q0.9": (
        "45b775c26c163c583131990e11d0726ffd090f176eddb187b3f0f704a9ca2bca",
        "2f6925bf90b798ef43398215dce74d0460129b70fb973c090f0f7606d6576d22",
        "fd3dfa628a725a3039e69f6b5d344a56b3ac1519d7b7bcbe3884068fb00f5eb5",
    ),
    "sketched-1/q0.5": (
        "38549f7e271122556c864e1f40302542a8c59675213bbc8589cdbd6b71313a50",
        "0dda0657812de4d041eadaa9783000e5d1a286fa593062bfef3f7d9ba7d8343f",
        "d6bc1cbb24d148de72126560e8c6950d58a60218c497b751bdea9621daf503db",
    ),
    "sketched-1/q0.9": (
        "cf78594ba09251325fe52a6cb75873d29c7ef5679896c662b6f43894876bf691",
        "e70154e10a865741834b2d692fe3a9ce2aea8b3ff35198d4dc5af0b1339493d5",
        "61225f3589cdef7302411423d2baeb5ba3e4148b97ea99543c32d06842a37b58",
    ),
    "sketched-10/excl-q0.5": (
        "bc15b11283533b36b9cbf8665eae2b867eeed541823b636d67e6f2d2f78c0956",
        "4780a9737e7c5202cc7ac8303dcad4bf1020d6765201bd1fce3f11e9c523402f",
        "e3335a991eb3d487f775e6797e4d4fcb117e4e8def0f6978e6d48075a9324a16",
    ),
    "sketched-10/excl-q0.9": (
        "fa0a2fe838155ebc93fa85bc0bf27f20f5d44ad87db282995a1019c8456b612d",
        "d26f6b616cf5073a63777c968fbf5a120cd1d2c5e88a1f94af2a330a012ff545",
        "165de4624c2769a860ef0301e65677a396a17842f8fb10bf9a74589299151169",
    ),
    "sketched-10/q0.5": (
        "852339423bea8268bcfafedb643f9830dd2487d11d44daa2c04432eef4bc28d5",
        "08c3d72f3383ef8d505e10a925478611377f77faf869cc87fa150fb04023856a",
        "f90e650d87bcb135026ba4b008f4c3d46d1af223072348cdcb2eaf008a410fe0",
    ),
    "sketched-10/q0.9": (
        "3ccaa2afa5b9d48971b4fd654aa3df8ddbd5ceab3d48a84dec786eb88a60a81a",
        "1886333205605d64454d4eb3140a7cea57fdb57332a469866e44ca4b3131ca69",
        "ef99990ce1ab9bed5c0b4d1866cab1e03c672011e156c01e8b235179f7689a8d",
    ),
    "sketched-2/excl-q0.5": (
        "9fc6a2f5a9d5b0b0e5bc339f72ef46a9f5f2e01ca6ad0a6fbc776a63072c4bab",
        "9bb5d55f1b54fe3d552f4777fce0c5cc802639da00e2d1aa73c2e4edd39f270e",
        "6650344b983948ce7bbfef265639ba2e5ac480e6c7267907ea1ff14c5a170288",
    ),
    "sketched-2/excl-q0.9": (
        "90a3aa7bbfb1e23bb6ea69ddfc3d322e56f89091bfc2b2d231ee6a7b86a9f5c0",
        "7a772495a6f3e49b35a430ded347f8ba9919ebadc6ad489720ec2b4f3e330536",
        "6171b569f51fb7245526b3d8181c5c65e68bf575b8e7b36782bd55ff97716dcb",
    ),
    "sketched-2/q0.5": (
        "e1f3ce51ca0677030908bd6d63f17ae080047fce272bfb1d82048d32e4f34c18",
        "49d53ce0b3f79553fcd2c362c2d8e3190468427d30c35fe50b80a39cd166aa97",
        "47c8802b5a554265373f7a8c3aa221edfaf0cca4e3a2537570895dec3575a73f",
    ),
    "sketched-2/q0.9": (
        "1b527b294857521bbe917e61dfe74a7d57ca1108ceed3776a31a28b3f115097a",
        "0a2261af9dea40eda84fbd39a550b9a44d0b6533f2da7fdbf7edcd99a1ae59fc",
        "8c9c3e210534c03e42821c7dd6717cd13a25886737efc32320b5ae4a488035cd",
    ),
    "sketched-4/excl-q0.5": (
        "b5fcd137ea8635dcee46ccfcaec3d909cf0f8db74b211c349248714bd5f7303b",
        "4114b3bab299460ae348e228219591752f9324ae696db4add35b143660b949e6",
        "a574a7c0dc0277aa237fc00ced28a44f6a3d8ed70c69a00c4fd96a7f0f7c5cd4",
    ),
    "sketched-4/excl-q0.9": (
        "8c1caab82b450fec476f9bd5b5b06567f67974f9d8d2fb8c80b5bfc625f4d186",
        "0b1b5e14f5fe3bc458b346ac8884d1465aaaf200d9b529f541c244e880b6b145",
        "c78674d03585f0b6a5c9c3c9af1f6c958e5ef5dee275f5591ac475ca5b00e066",
    ),
    "sketched-4/q0.5": (
        "82538955b974ac60cd31c7bc90f35bcfee4828d2a0d8a58681c4cb2a7643a545",
        "da85d2988a203e9409a98cb97b067910dbdad837d11ac0089eb2c00558f970a8",
        "1f00ac91c15790ed5df2a27ce8d2bef8c3b89b0a4de9c140dd58b71687db0389",
    ),
    "sketched-4/q0.9": (
        "3aad2038bfb4d67978b7479f07958247911cf94aa45fa869c9801ae7dd821ae2",
        "39313eda5b1b0b94309c240a7e4e779d94d96c5745e0a4188165ca5cb715783e",
        "7eaf1939a6a9cee8fa396a4438fed6d48d880f7c65a387fe435e21f5801c9c36",
    ),
}


def _run_file(tmp_path, name):
    fname, r = RUN_SETS[name]
    with open(os.path.join(DATA, fname), encoding="ascii") as fh:
        payload = json.load(fh)
    # sketched runs: the first R; the exact run: R copies of it
    rows = payload[:r] if len(payload) >= r else payload * r
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return str(path)


def stats_digests(tmp_path, capsys, run_set, flags):
    runs = _run_file(tmp_path, run_set)
    out_json, out_tsv = str(tmp_path / "s.json"), str(tmp_path / "s.tsv")
    capsys.readouterr()
    assert main(["-q", "stats", runs, "-o", out_json, "--tsv", out_tsv, *FLAGS[flags]]) == 0
    stdout = capsys.readouterr().out.encode("ascii")
    blobs = [open(p, "rb").read() for p in (out_json, out_tsv)] + [stdout]
    return tuple(hashlib.sha256(b).hexdigest() for b in blobs)


@pytest.mark.parametrize("flags", sorted(FLAGS))
@pytest.mark.parametrize("run_set", sorted(RUN_SETS))
def test_stats_bytes_are_pinned(tmp_path, capsys, run_set, flags):
    assert stats_digests(tmp_path, capsys, run_set, flags) == DIGESTS[f"{run_set}/{flags}"]
