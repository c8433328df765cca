"""Golden outputs of the five CLI commands on generated inputs.

Each command runs in process in a fresh directory.  Its stdout, stderr,
exit code and every file it writes are hashed with SHA-256 into one
digest per command, compared with the digests recorded below.  A
refactor that changes any byte of any output fails here.

To re-record after an intended output change, or to record a case just
added to ``_cases()``, run this file as a script from the repository
root with ``src`` on ``PYTHONPATH``; it prints the table, with a row for
every case of ``_cases()``, each run in its own temporary directory.
"""

import contextlib
import hashlib
import io
import os

import pytest

from celltopo import cli
from celltopo import generators as gen
from celltopo import io as dio


def _cases():
    octa = gen.octahedron()
    s4 = gen.simplex_boundary(4)
    s5 = gen.simplex_boundary(5)
    torus = gen.torus_grid(4, 4)
    cube = gen.cube_boundary(3)
    sphere43 = gen.lattice_sphere(4, 3)
    sphere52 = gen.lattice_sphere(5, 2)
    return {
        "octahedron": (octa, "equator", gen.equator(octa, "octahedron")),
        "simplex4": (s4, "sphere", gen.equator(s4, "simplex-boundary")),
        "simplex5": (s5, "sphere", gen.equator(s5, "simplex-boundary")),
        "torus44": (torus, "meridian", gen.torus_meridian(torus, 4)),
        "cube3": (cube, "band", gen.equator(cube, "cube-boundary")),
        "sphere43": (sphere43[0], "equator", sphere43[1]),
        "sphere52": (sphere52[0], "equator", sphere52[1]),
    }


COMMANDS = {
    "check": ["check", "in.dsc"],
    "flat": ["flat", "in.dsc", "--chain", "{chain}"],
    "separate": ["separate", "in.dsc", "--chain", "{chain}", "--out",
                 "sep.txt"],
    "contract": ["contract", "in.dsc", "--chain", "{chain}", "--out",
                 "trace.dsctrace"],
    "export": ["export", "in.dsc", "--out", "complex"],
    "export-trace": ["export", "trace.dsctrace", "--out", "trace"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv) -> str:
    """One command's digest over its outputs and the files it wrote."""
    before = set(os.listdir("."))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = ["stdout " + _sha(out.getvalue().encode()),
              "stderr " + _sha(err.getvalue().encode()),
              "exit %r" % (code,)]
    for name in sorted(os.listdir(".")):
        if name not in before:
            with open(name, "rb") as fh:
                record.append("file %s %s" % (name, _sha(fh.read())))
    return _sha("\n".join(record).encode())


FIGURE_IDS = ("fig3a", "fig3b", "fig3c", "fig4", "fig6a", "fig6b")


def _digests(name: str) -> dict:
    space, chain_name, chain = _cases()[name]
    with open("in.dsc", "w", encoding="utf-8") as fh:
        fh.write(dio.save_complex(space, {chain_name: chain}))
    return {cmd: _run([a.format(chain=chain_name) for a in argv])
            for cmd, argv in COMMANDS.items()}


def _flat_digest(case_id: str) -> str:
    """Digest of ``flat`` on a figure case: a non-flat report, with its
    distance and mediator messages."""
    space, curve = gen.figure_case(case_id)
    with open("in.dsc", "w", encoding="utf-8") as fh:
        fh.write(dio.save_complex(space, {"curve": curve}))
    return _run(["flat", "in.dsc", "--chain", "curve"])


GOLDEN = {
    'cube3': {
        'check':
            '8b696f664e549e8550df261731653c1c7528d26908f7e3462b516bbce068707b',
        'flat':
            '4ea57f263a1543063c23b4b93d1f00910ee5b7190876b8be758a2be7d13b02ae',
        'separate':
            '601f0fb03d8d5c20440a2fae641954c60f6f030002c25bb4511ecd7d186b71c1',
        'contract':
            '96e5af973d33b92b5a3e7281121d0f1b2b654f6c7f41937183ad8e0f6ff21a6a',
        'export':
            '681b4b3819b2b022b9ef96e38b4980c11c1a92c5203c664215aa50cd0a137d33',
        'export-trace':
            '3c1037601155e1d31e0abb907b8d9efd577e191d862d746ab9f309b9b2bf2dab',
    },
    'octahedron': {
        'check':
            '9d30010f6ca748622074aca0159cd5888fac732468947ff6446970be50192c44',
        'flat':
            'e5b628119a7838c26da7f47bf8aa81898bea731a8085c22ca05b808420f98965',
        'separate':
            'c53cb73d43fd9644d48bfe9d31bcd2e6e94ec81d898cc740bee5d1a8d5ba91bc',
        'contract':
            '705d3ff30a53dafdc4fd84bd210c07cebc614f3eb4ff607350cb411b27cf6a67',
        'export':
            'afb1341cfde38022c55393f7bbcff3eed08f06257c583996031014a6cdc08671',
        'export-trace':
            '9dc3dd3dd82c6c65f8bb87b91e7e522328b76e862a7581d233085f17a7255fa7',
    },
    'simplex4': {
        'check':
            '3eb8158698caf633eccf52f3d4d8afe781bea9066d6eb2c5053d19a3cf1f2671',
        'flat':
            'bceed3e624f99f58ac749affdaa3d8c6135a28fa72431379121eaa522009155f',
        'separate':
            '1fa17750ea1b1d819d61eef66e036b4916f5a96a43b715e0491f61fd4c64b8c2',
        'contract':
            '23162c96b3ca1e20904224768df51b1aea6f922e26bc85c4702ef6c66a95c0e8',
        'export':
            '7f4eae4614d2a6bcace4fb7458167347b3642954a9447cb4857d778fc81552e3',
        'export-trace':
            '7b843747c09636aa45a78771fad59fabf6f9bec113b1cfc8041b968b85e33ce1',
    },
    'simplex5': {
        'check':
            'c29413cc84d33593166ba9de61174359f5d4cf3ee808952baa4258e3d0e4a756',
        'flat':
            '16e83d1ca89ec0d6a061ac75adb53ffa154b80d8151ce15dbe0eceba582f92dd',
        'separate':
            '6ba3685571819c8b46e4d06438f6f80168293eaf3b420a9396520ef76251a073',
        'contract':
            'af28e99c606564398f2e286f1e2b7643871f0e397aa43d29dc5fee56d0834c9d',
        'export':
            '1f65d1a188eb63e8879d3b0ae690ab71281b6a40006c839c3d569e69d0574a2a',
        'export-trace':
            'e7f52bed5817400a089baf03ed9251281f90452c249cfb70c630de43cc7f1042',
    },
    'sphere43': {
        'check':
            'f440b17f2344f5e1240c2be837513aa487d2b7de1bf9092dc9ee7547020566cc',
        'flat':
            'd60c49e9e2ceccb341ad3c3e8f50e615ec37155bf260a2bc8da7975618d57299',
        'separate':
            '169fa24f2f1a7209fe2a12800e53037945f0f7d76d9385258f6c3ad2de674a5c',
        'contract':
            'ba521b443b9eb834529f760b4453370be220d0c73bdd1dc376db0e848a562692',
        'export':
            '1a6517ac228bed2163ed99c83d3ba0a5b0d89478c812f2a9901615a8b12ba45f',
        'export-trace':
            '1490dae986a22bf43b26b5d49fbce35c7d21af2cb4eca42d7eab0236c74419a4',
    },
    'sphere52': {
        'check':
            '4685899ff3caa52e5857fb2cbe02fb8cb1f41d60aced03d8db9e344c6ed53af5',
        'flat':
            '2f33159d14783ce09f2913187a57e6856506462d6294fb91d1e306411f98fee3',
        'separate':
            '6bcfa8dabbc2dff76e1362845f5a4cad2dbb618fc3794dec86b0714eb8bc5220',
        'contract':
            '60fd56d95c35c86fe7ea9fca2aeccc6d8d7d95c8b9effcff336e588f76bc862f',
        'export':
            '556d7970dd9ac3f1926a161f210ea5373b550b15f351a197df212889076e48c2',
        'export-trace':
            'acc5ab0d7f17793ff99e959adfd8b5fd903a9f3c1149342e2c09dce2dd93bfa8',
    },
    'torus44': {
        'check':
            '787e7968e4db18306f12f68e7b3c38afae4e8eb15a2167acbc04b20b9fc8adfa',
        'flat':
            'b81becdb6500463dec8ec2483a93d18ec9615ae01235edc88680a5aff0d55053',
        'separate':
            'bf6394cf3e6948770b61ce1b3a5edfc22e32fbb2b0526c3efd852093c6c23366',
        'contract':
            '5d3972239b60779f94171cd962e16f3786072d712eb833632a5f876e1dfe0559',
        'export':
            '81aab4d1c0c9b8981607a5e8730e9e38609993b39aeaee91857a66604361d3d6',
        'export-trace':
            '3c1037601155e1d31e0abb907b8d9efd577e191d862d746ab9f309b9b2bf2dab',
    },
}


FLAT_GOLDEN = {
    'fig3a':
        'f2ff4cec80dc993d88e6031f22e942f7627a186ed54caaebe7f4de1f37c61a97',
    'fig3b':
        'c75086a016e885c0908558c64978a88612cd7d8bb8436a6fe48f65f1118525fb',
    'fig3c':
        '00f60b8bf908cd1681df5daff8be680130c34f6b91b823700b923ff4a3f34803',
    'fig4':
        '71c9ab8adfc86064c2a5043146348ab5844b74ddc21e8a32fc96ca374656368a',
    'fig6a':
        '0e53cc1db0f653e357dc0dd6010d84a885ac5984998031234a006096257ad854',
    'fig6b':
        '4a0a9cd740087d5ace4d5924a851ac2462f192754175a4e15310f144c79e7f4e',
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_outputs_match_recorded_digests(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _digests(name) == GOLDEN[name]


def test_every_case_has_recorded_digests():
    assert sorted(_cases()) == sorted(GOLDEN)


@pytest.mark.parametrize("case_id", FIGURE_IDS)
def test_flat_reports_match_recorded_digests(case_id, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _flat_digest(case_id) == FLAT_GOLDEN[case_id]


if __name__ == "__main__":
    import tempfile

    def _in_tmp(fn, arg):
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                return fn(arg)
            finally:
                os.chdir(cwd)

    print("GOLDEN = {")
    for case in sorted(_cases()):
        print("    %r: {" % case)
        for cmd, digest in _in_tmp(_digests, case).items():
            print("        %r:\n            %r," % (cmd, digest))
        print("    },")
    print("}")
    print("FLAT_GOLDEN = {")
    for case in FIGURE_IDS:
        print("    %r:\n        %r," % (case, _in_tmp(_flat_digest, case)))
    print("}")
