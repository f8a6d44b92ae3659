"""Golden digests: byte-identical output across commits.

Each case hashes ``trace.csv`` + ``stats.txt`` + the stuck list of one run
and compares it with a digest committed here. A change that means to alter
simulated behaviour regenerates the table with

    PYTHONPATH=src python tests/test_golden.py

and says so; every other change must leave it untouched.
"""

import hashlib
from pathlib import Path

import pytest

from nocsim import Engine, LinkParams, TransportMode, load_scenario, random_scenario

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
    return cases


def _cut(scenario, max_cycles: int):
    scenario.run.max_cycles = max_cycles
    return scenario


CASES = _cases()


def digest(case: str) -> str:
    result = Engine(CASES[case]()).run()
    h = hashlib.sha256()
    h.update(result.trace.to_csv().encode())
    h.update(result.stats.to_text().encode())
    h.update("\n".join(result.stuck).encode())
    return h.hexdigest()


GOLDEN = {
    "file-basic_line": "5b2a9291d351d9bcbcc05fda4475b86fbac640f1ffe6986ebede428fac891168",
    "file-exclusive_loop": "b97e1acd8f4bebd0c265f5c00ebce84e43fdabb5dd832527d051794991e4c10b",
    "file-lock_deadlock": "d2c48bbfdf096093bee06fe45ea19ba6342848709f824bae1966006f67f31923",
    "file-lock_loop": "a50e3f5a305897d159a073fd4aa73236e218e6ddb8f55485eef8be2bb0384fcd",
    "file-qos_contention": "906c909ac66bd49992f0b40ee56493eb9825a17d04e2de59bfc2dca34c39fc0b",
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_digest(case):
    assert digest(case) == GOLDEN[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{digest(name)}",')
