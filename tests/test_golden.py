"""Golden digests: byte-identical output across commits.

Each case hashes ``trace.csv`` + ``stats.txt`` + the stuck list of one run
and compares it with a digest in ``GOLDEN``. The same run also pins the
post-run audit: the sha256 of ``check_invariants`` output, one violation per
line, is compared with ``GOLDEN_AUDIT``. A change that means to alter
simulated behaviour or audit output regenerates the tables with

    PYTHONPATH=src python tests/test_golden.py

and says so; every other change must leave them untouched.

``GOLDEN_AUDIT`` deliberately pins today's false "live twice" tag-liveness
reports on pooled multi-stream masters at packet/full trace level (see
``check_invariants``). The change that fixes them regenerates that table
on purpose.
"""

import hashlib
from pathlib import Path

import pytest
from helpers import mixed_widths

from nocsim import (
    Engine,
    LinkParams,
    TransportMode,
    check_invariants,
    load_scenario,
    random_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SLOW_LINK = LinkParams(flit_payload_width=4, latency=3, rate_ratio=2)
MODES = {"wormhole": TransportMode.WORMHOLE, "saf": TransportMode.STORE_AND_FORWARD}


def _cases() -> dict:
    cases = {
        f"file-{path.stem}": (lambda p=path: load_scenario(p))
        for path in sorted(SCENARIO_DIR.glob("*.yaml"))
    }
    for seed in range(20):
        for name, mode in MODES.items():
            cases[f"random-{seed}-{name}"] = (
                lambda s=seed, m=mode: random_scenario(s, trace_level="full").with_mode(m)
            )
    for seed in range(4):
        mode = TransportMode.WORMHOLE if seed % 2 == 0 else TransportMode.STORE_AND_FORWARD
        cases[f"slow-{seed}"] = (
            lambda s=seed, m=mode: random_scenario(s, trace_level="full")
            .with_mode(m)
            .with_link_params(SLOW_LINK)
        )
    for seed in range(2):  # cut off mid-run, with packets still streaming
        cases[f"slow-{seed}-cut"] = lambda s=seed: _cut(
            random_scenario(s, trace_level="full").with_link_params(SLOW_LINK), 600
        )
    # every link and attachment its own width, so packets are re-sliced at
    # most hops; the cut-off runs end with packets spread over several hops
    for seed in range(4):
        for name, mode in MODES.items():
            cases[f"mixed-{seed}-{name}"] = (
                lambda s=seed, m=mode: mixed_widths(
                    random_scenario(s, trace_level="full").with_mode(m), s
                )
            )
    for seed, mode in enumerate(MODES.values()):
        cases[f"mixed-{seed}-cut"] = lambda s=seed, m=mode: _cut(
            mixed_widths(random_scenario(s, trace_level="full").with_mode(m), s), 300
        )
    return cases


def _cut(scenario, max_cycles: int):
    return scenario.with_run(max_cycles=max_cycles)


CASES = _cases()


def digests(case: str) -> tuple[str, str]:
    """(run digest, audit digest) of one run of the case."""
    scenario = CASES[case]()
    result = Engine(scenario).run()
    h = hashlib.sha256()
    h.update(result.trace.to_csv().encode())
    h.update(result.stats.to_text().encode())
    h.update("\n".join(result.stuck).encode())
    audit = "\n".join(check_invariants(result.trace, scenario, result.stats))
    return h.hexdigest(), hashlib.sha256(audit.encode()).hexdigest()


GOLDEN = {
    "file-basic_line": "5b2a9291d351d9bcbcc05fda4475b86fbac640f1ffe6986ebede428fac891168",
    "file-exclusive_loop": "b97e1acd8f4bebd0c265f5c00ebce84e43fdabb5dd832527d051794991e4c10b",
    "file-lock_deadlock": "d2c48bbfdf096093bee06fe45ea19ba6342848709f824bae1966006f67f31923",
    "file-lock_loop": "a50e3f5a305897d159a073fd4aa73236e218e6ddb8f55485eef8be2bb0384fcd",
    "file-qos_contention": "906c909ac66bd49992f0b40ee56493eb9825a17d04e2de59bfc2dca34c39fc0b",
    "mixed-0-cut": "94ffaae3347c33f280847cfb751059b50542dfa1f962c847c75f22b21ea07ff4",
    "mixed-0-saf": "da7059ba8b54804f67a6c1c269a98b16dfeb6fb7850d59535a37f018633fcac9",
    "mixed-0-wormhole": "20a478739eec4d147cf2cc5c1f242dcd7deef1c036be5c374eba1e62b79bcb85",
    "mixed-1-cut": "c6f6534d4809cca699ab4f1f8547d7fa48d76c6e68fc7a1bc3d503119cf57a7e",
    "mixed-1-saf": "3c77a643ba184d8fe25c0a106499ebbeb37fe665fd51a5e422ec4d7d0df17a90",
    "mixed-1-wormhole": "1746b8939a75a306c89c0c0e09325642b9d65f6c9436ccf8f3b07cc6c8d1db05",
    "mixed-2-saf": "121bc0827f608e12389faa7608917a3e444838e89b4e4f59d51426731158dff5",
    "mixed-2-wormhole": "fdca28159e8aeda736d077f88b3e621e615a66eefd7e12bba91bce73fe5f0939",
    "mixed-3-saf": "6ffb69b48841a4cef9ae54e74cac2f0fa79e247c46d5a1cfe5865d83e505ee30",
    "mixed-3-wormhole": "3c4b5a7e7663caff3b82ad19455ce65f399e174a84e2dc41cae6e776aafc876d",
    "random-0-saf": "619e044a3bffecc36e51b2f4508fc95c8e86d965d6471491cfbb72baf62d12af",
    "random-0-wormhole": "e43222f4df2bf309f7ae71632e12e1d0ad8b8c9b77efb6841d6a68bfca09f315",
    "random-1-saf": "c54b32d722c5c70603ef7ce0703768459b8f3f93682ee500959ecba86669709c",
    "random-1-wormhole": "6050d4d9ea0836ab4b9137ac5b2e8eded8392ab515880af8c838035fae4e2b04",
    "random-10-saf": "47b00a936ef8e2397ec7029a949d3dc56ee97dd7ed8eb85ff10be9da6687d338",
    "random-10-wormhole": "8cb4d8f222a70bb7559c0c7643682b8750f0bd577b11b27740a4072c982fd6ba",
    "random-11-saf": "1023f200c063e61fd1a9562aa165c21841979a4373b1b6516e161080c3bf578f",
    "random-11-wormhole": "bcdcea8c4f62c5fedfb4eb0c54a541a1621e4a16ca89123a1e25c2e81c2301df",
    "random-12-saf": "3cebbd61173b8153574360f76e7d6b9243ec8b4aeefffcdbc2a228e35c1b2340",
    "random-12-wormhole": "ec028c741df94ea37d3b7a34f5244eed56de22a22dd907a3fe9b561bb7fafe8f",
    "random-13-saf": "14eac712460699fb726a7c51a4d121c3b1e3df9c6ecca46b9a93db70b9d54489",
    "random-13-wormhole": "329de74d90f1bdb5fbd44012f9d022cc4a72563b42968dfc1829770f0d978d82",
    "random-14-saf": "3f094ee525333110cd55175ec804cf46b01395223686dc1ef57471c680667e50",
    "random-14-wormhole": "9c3bef0cdf40a6dbf252639b16d8167494816c8f1e58d9d1c2fc3b16637754d4",
    "random-15-saf": "dec832be186762951280af0fda733565a33dcbdd476af07282f5697a1ddb3c68",
    "random-15-wormhole": "e2c7cd8706d4b2016e752458babb27019aebbe365146409b50f2ac0f0f2ec515",
    "random-16-saf": "e324c0e84185857241e80e03bdded3502c80ec32258f9a5e6753a07e63ed31ba",
    "random-16-wormhole": "4f4a8d85a4f8466d8e95555e8db0254c23de0d35f07f327d9382df11179d4762",
    "random-17-saf": "3c70f03b5a153de9c1ff42bf2d4bb4dd23feca2b0ff496842f48b15c594dda83",
    "random-17-wormhole": "91b61767db8d9257217fb173e3b50dc0aeb95518ae12f425f233bc1236e16365",
    "random-18-saf": "2c1633081e09e2195deb7af863adf93982556023bd4e63b96eba933d04580f88",
    "random-18-wormhole": "7933b71cebcf0630db2cc9ffb994a1015cdd33768797f34a4c6431493816978b",
    "random-19-saf": "a8725a8a85e8da16f2704e92401064af6e1936e1533d0c7fcbd260decf56d535",
    "random-19-wormhole": "af6b063a3069b9b8d1ad46c7f2c6965f48a3147ba1c564708372c0a78cabd0f3",
    "random-2-saf": "129f5432c3f6e3c46f074985f29a1a62d03f3f56cbf42ac8962b009ac22ac5db",
    "random-2-wormhole": "5898886033b0fb0c853c708de26d8e44a37a6994ad770fb8dfccc7013145e689",
    "random-3-saf": "e05b93812449ecfd82ff0e5d6d5567862f22a7f67acae0cf58ce74bc9f349435",
    "random-3-wormhole": "3677511108fb17cbe83803ce261fe5ce66cb46195452c455115a3de15b2fa402",
    "random-4-saf": "9151b9966ad1085ec3fd6cc69ccc04ac2b837807de1f95bae1a3fa6609fd9ce3",
    "random-4-wormhole": "6850a3b213a3310df2b950e27a49aa01393d3036ae2ae96efc346cbe882a9f32",
    "random-5-saf": "30af163b2cbf1e6eb150414f539e9d1ed9bffbb6bb73ba76f88eae53b72a3e17",
    "random-5-wormhole": "d0d83e726472bfd1dc51efe9ce39db8fc16e42233e68028062fdedb5fb8d7526",
    "random-6-saf": "8bacc693d79cbeeef23cd133bfd749d18fd05031ca11227a994c232102304c1e",
    "random-6-wormhole": "af81bf1685f09008763e23303c8b53c91eb79dda990e1383225350ebb53893fd",
    "random-7-saf": "86c3ce46b5b2d1b6be3f58a8377b584a14818d49b69ffa10801fa8426e3231fc",
    "random-7-wormhole": "2221b5191a4145c49e74a01b36d552eb5a039aa03951cb9b77a221c9cd158119",
    "random-8-saf": "3704b8606105b96a0f18a59445a92b738f91f799858df314129822bc142fdab8",
    "random-8-wormhole": "396e60ba12f497e348739da108650c1341bd8728187b748431287a37ed92479e",
    "random-9-saf": "4a6f34f1bebf246d974c58867896fd7561348c7fdd65a090f9828a34cfec08e7",
    "random-9-wormhole": "627381c2e2a62828530b9d4eeb0d4964c027bdb6b042f3f98587989752393623",
    "slow-0": "29436763797b94892f3912652b1b91fc322738b9cdc74141c6ece3b96e343b12",
    "slow-0-cut": "f7bb5e5ced42843b8813c9c5790deefe226b3ba2068c2094015d89fb3a3a6b47",
    "slow-1": "447e560e1fac4391b59308bd5215b81fbf7bb711046d354e9ace6d9b2330f8b9",
    "slow-1-cut": "01fed158b63b986c00d943e55d663bb0105f3fefc1d7eee2698fb1bd11773ef2",
    "slow-2": "e7abb6d1146dff8ea11d9b86679d97bb9c55db08917760dadb623a7f1af8fc12",
    "slow-3": "636adb9bfc73dfc3b391293dfcd1072f907c2d5b9a10ebca19f3e71f2fd262b4",
}

GOLDEN_AUDIT = {
    "file-basic_line": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "file-exclusive_loop": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "file-lock_deadlock": "d06351ed24d06763b7b2b26b2c10adcee5bbf9e112878738a21b98b34260a46e",
    "file-lock_loop": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "file-qos_contention": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "mixed-0-cut": "b3888968f08815cf79b5dfc79e3e4938f56fe612414f378c9d2f0feaab4934f5",
    "mixed-0-saf": "ea45c9ea492ffdf73b50197ae5e65a78465de3f3a2471de283a812e845dc83b3",
    "mixed-0-wormhole": "8583f170532d75d75bfd22c0c96c1a615176d5072fb95eeae4f19879586cafc6",
    "mixed-1-cut": "b7670f954d57e8710a0566fa532158061ae23cfb07f84d6ef9e5680b5881d2ee",
    "mixed-1-saf": "ef494653a922bfe0e9bf2fb5ab51a70a865c195e0556c6e0359fec16973411a2",
    "mixed-1-wormhole": "18bdaea5bf0981f8de917da3ce0fe6ee34305445f1a9362fec85e15226db2949",
    "mixed-2-saf": "89d5bf5f21c2241ac024d1bf5145a47ae1ba3a6de3f04ba5325a57d4263f7204",
    "mixed-2-wormhole": "354c163f799cddbbd5f6b26928108add846d3b08bc3a5cee44b2311eeb3fc3b1",
    "mixed-3-saf": "425fcbf070dca84a57d1453e7021c11db1874ee1627b27b6e74b856680e4c591",
    "mixed-3-wormhole": "425fcbf070dca84a57d1453e7021c11db1874ee1627b27b6e74b856680e4c591",
    "random-0-saf": "3f4e58932a7c2432fda8d890675035365d922dcba3573c2367aecb6524e25c36",
    "random-0-wormhole": "1bca19e6fc428d6ca92db969fa6f069f8e75748cc66de1cf32cc68cc8c404616",
    "random-1-saf": "b39b8c8bafebdd4f42189cc8cad9bc441538d3a73e1172fbd3a8fc0c16541947",
    "random-1-wormhole": "fca3a9a51f57fd10f9d83e488de478ae13ea416a570970fcd10347e2268e6db4",
    "random-10-saf": "183c7b17b53a60fbe2d70efe74b263f514504aa39f5694cb4d29111a41356e55",
    "random-10-wormhole": "4d453df8a5e5b2de1ed9bf44d6be9f9c8d16c1095b4f93da7fd7c13126873b5f",
    "random-11-saf": "863d4226f4eb646b30b9536aa54539c9b6736ec437367f4a2283875eb4d4ea62",
    "random-11-wormhole": "1186e528db506215ed9d6f3ea9f3b9b96b25436d740edc8cb5df17a62c71d3b5",
    "random-12-saf": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-12-wormhole": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-13-saf": "f586a2f252e219e5f1bc5cbcd21bdd83f0cd7a0550d5e9097ccfe799126933cd",
    "random-13-wormhole": "62c6a27b4657f9e133f35b6487d34916278f5585a2e571c6a77d197b8a3b36f1",
    "random-14-saf": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-14-wormhole": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-15-saf": "e6c42d685b2e5336518d860e72a757cd2700214f0f5012677c20f38dfb8b28ad",
    "random-15-wormhole": "e6c42d685b2e5336518d860e72a757cd2700214f0f5012677c20f38dfb8b28ad",
    "random-16-saf": "3ef7cfaa84510fbad831df9136838a38336d08fc16fab01346fb678e8b883b28",
    "random-16-wormhole": "3ef7cfaa84510fbad831df9136838a38336d08fc16fab01346fb678e8b883b28",
    "random-17-saf": "1e0aaceaef4bac7f119b2bf0bcadfcda1b648909f4065763ccf982e7a65a047b",
    "random-17-wormhole": "1e0aaceaef4bac7f119b2bf0bcadfcda1b648909f4065763ccf982e7a65a047b",
    "random-18-saf": "d7b2c56b072725ad14fa416387fee18c4bd7d7c435d99a52b9a923a7725385e5",
    "random-18-wormhole": "d7b2c56b072725ad14fa416387fee18c4bd7d7c435d99a52b9a923a7725385e5",
    "random-19-saf": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-19-wormhole": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "random-2-saf": "98ff830285d9e6d6fb0f97565ccbf002643ee5b8cefd56febd044d05ec456d76",
    "random-2-wormhole": "1d36eebac2d6ff1b5f6803e414551e4708d559495cbd0b9910700ac643c1cbcd",
    "random-3-saf": "425fcbf070dca84a57d1453e7021c11db1874ee1627b27b6e74b856680e4c591",
    "random-3-wormhole": "425fcbf070dca84a57d1453e7021c11db1874ee1627b27b6e74b856680e4c591",
    "random-4-saf": "940fd285c47482928a19ec9cb57dd24afb1b3dd0c848b9f0513115a533e3b8a7",
    "random-4-wormhole": "370f1a79bc2737a1a914802b22251991e581f573fdf16f0079018aa8a5754dd3",
    "random-5-saf": "4cd0b0c0ced561d582613b662dd928c2a0f7534f20957cbe8c5039dbef05a52b",
    "random-5-wormhole": "4cd0b0c0ced561d582613b662dd928c2a0f7534f20957cbe8c5039dbef05a52b",
    "random-6-saf": "24bd44c413f3ac41dd0f709f1742ac7174db195dfa2f7c51eee7a8605c8720f2",
    "random-6-wormhole": "d1affa3af18815cd9aa1a9b0426293a73bb61dfad0f6455d9ff0208b62aa4d6a",
    "random-7-saf": "a999a318286c641609b66d651c543ed0d848640524caf39eb3c2c62976dc8e39",
    "random-7-wormhole": "a999a318286c641609b66d651c543ed0d848640524caf39eb3c2c62976dc8e39",
    "random-8-saf": "d71418bafcbde44ed926b3b7f53bc4897dddaded97af95437472023b12a52020",
    "random-8-wormhole": "d71418bafcbde44ed926b3b7f53bc4897dddaded97af95437472023b12a52020",
    "random-9-saf": "7cff2a9d2a85cc01c29daf1eb5a3b769f4dc45647b72e4cbfefa7f52310efdc6",
    "random-9-wormhole": "b62013dad77e5d509c61dec0ecbb05df6b23d5a6f699a85347297dc289d7108f",
    "slow-0": "37e36826afc17a7ae83505ec1f29a5b653376da0b3c72cad315031debbab5aaa",
    "slow-0-cut": "7db93921d2ab9e9aa80ccd81ea38f9b57788057edb03bfdfd6179b6eb646ddf4",
    "slow-1": "c658ca7abd4a14cadb19403579b51070b7f1e9f4bd4fe1ef37e9f80c8b654e63",
    "slow-1-cut": "2ce156c093a87896e0a3fc36daa54da27362c430d7bb499b57936f5daa61a3ae",
    "slow-2": "d2105851d322daeb2f34b9cb507503aef9927e14582c42f7b79db9ecfe633f1a",
    "slow-3": "425fcbf070dca84a57d1453e7021c11db1874ee1627b27b6e74b856680e4c591",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    run_digest, audit_digest = digests(case)
    assert run_digest == GOLDEN[case]
    assert audit_digest == GOLDEN_AUDIT[case], "check_invariants output changed"


if __name__ == "__main__":
    table = {name: digests(name) for name in sorted(CASES)}
    for title, which in (("GOLDEN", 0), ("GOLDEN_AUDIT", 1)):
        print(f"{title} = {{")
        for name, pair in table.items():
            print(f'    "{name}": "{pair[which]}",')
        print("}")
