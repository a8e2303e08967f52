"""Pinned search runs: the order in which nodes are expanded and what the
incumbent sees, compared exactly against values recorded with the rational
(``Fraction``-ordered) guide key.

A change that only makes expansion cheaper must leave every figure here
unchanged: the sha256 of the expansion trace of ``mba_star`` under each guide
and capacity, the number of nodes expanded, the incumbent's waste history
and the insertions leading to its best leaf; ``dpa_star`` is pinned the same
way.  The searches are single threaded and have no time limit in effect, so
they are deterministic.
"""

import hashlib
import random

import pytest

from glasscut.cli import GUIDES
from glasscut.model import Defect, root_node
from glasscut.search import (
    Incumbent,
    astar,
    dpa_star,
    iterative_beam_search,
    mba_star,
)

from conftest import expansion_trace, midsize_instance, pinned_record, random_small_instance

NO_LIMIT = 600.0  # seconds; far above what any run here takes
CAPACITIES = (2, 5, 17, 64)
MIDSIZE = {
    "16x4": dict(n_items=16, n_chains=4, seed=1),
    "20x6+defects": dict(
        n_items=20, n_chains=6, seed=2,
        defects=[Defect(0, 2500, 1500, 60, 40), Defect(1, 800, 300, 50, 50)],
    ),
    "24x8": dict(n_items=24, n_chains=8, seed=3),
    "30x6+defects": dict(
        n_items=30, n_chains=6, seed=5,
        defects=[Defect(0, 1000, 200, 300, 150), Defect(0, 3000, 1800, 80, 90)],
    ),
    "40x6+defects": dict(
        n_items=40, n_chains=6, seed=77,
        defects=[Defect(0, 2500, 1500, 60, 40), Defect(1, 800, 300, 50, 50)],
    ),
    "20x3": dict(n_items=20, n_chains=3, seed=9),
}
SMALL_SEEDS = (5, 12, 17, 23, 24, 27)
DPA_SEEDS = (0, 1, 2)  # midsize_instance(14, 2, seed=s): 577-790 expansions


def _digest(nodes, params) -> str:
    """sha256 of the insertions that produced ``nodes``, each as its
    ``pinned_record`` on plates of ``params``."""
    records = [None if node.insertion is None else pinned_record(node.insertion, params)
               for node in nodes]
    return hashlib.sha256(repr(records).encode()).hexdigest()


def _path(leaf) -> list:
    nodes = []
    while leaf is not None:
        nodes.append(leaf)
        leaf = leaf.parent
    return nodes[::-1]


def _summary(res, incumbent: Incumbent, params) -> tuple:
    best = None if incumbent.leaf is None else _digest(_path(incumbent.leaf), params)[:16]
    return (res.outcome, res.nodes_expanded, [w for _, w in incumbent.history], best)


def run_mba(name: str, guide: str, capacity: int) -> tuple:
    inst = midsize_instance(**MIDSIZE[name])
    incumbent = Incumbent()
    with expansion_trace() as trace:
        res = mba_star(root_node(inst), inst, GUIDES[guide], capacity, NO_LIMIT, incumbent)
    return (_digest(trace, inst.params),) + _summary(res, incumbent, inst.params)


def run_dpa(seed: int) -> tuple:
    inst = midsize_instance(14, 2, seed=seed)
    incumbent = Incumbent()
    with expansion_trace() as trace:
        res = dpa_star(root_node(inst), inst, NO_LIMIT, incumbent)
    return (_digest(trace, inst.params),) + _summary(res, incumbent, inst.params)


def run_small(algorithm: str, seed: int, guide: str) -> tuple:
    inst = random_small_instance(random.Random(seed), max_items=8)
    root = root_node(inst)
    incumbent = Incumbent()
    if algorithm == "astar":
        res = astar(root, inst, GUIDES[guide], NO_LIMIT, incumbent)
    elif algorithm == "ibs":
        res = iterative_beam_search(root, inst, GUIDES[guide], NO_LIMIT, incumbent)
    else:
        res = dpa_star(root, inst, NO_LIMIT, incumbent)
    return _summary(res, incumbent, inst.params)


MBA_EXPECTED = {
    ('16x4', 'w', 2): ('3dc2d2b90158e0cb25868daeba903c8c45d2eaa3aca64b03bd6c76e95b1e7ae7', 'exhausted', 11, [], None),
    ('16x4', 'w', 5): ('7653c7bf4da84671d0bf121b3d459e30ab62cfecdad164836128d1e3ca780f4d', 'exhausted', 79, [7291002, 6793452], '1d4cf15c02f29164'),
    ('16x4', 'w', 17): ('b9633a62ebe5c9297d7521cd85490c5e722b80f5c9758365ae5bce999bf9d448', 'exhausted', 261, [4556082], '341045e7b2bf0500'),
    ('16x4', 'w', 64): ('840aaa88ce4e4cbc428a59ecedf6dd0597645f50f91ddccc8acdaced1eac7b15', 'exhausted', 911, [5425992, 5040792, 3888402], 'd506a63e987c2cdf'),
    ('16x4', 'p', 2): ('33a02ed0da8f16ac0014c36f31e2b6409a8ed6c0fb9c554e6cb3983519c28c65', 'exhausted', 8, [], None),
    ('16x4', 'p', 5): ('97424f0b90cf83049eb1c012295d33383d0749bf3d8455478f97eafb228d71cd', 'exhausted', 44, [], None),
    ('16x4', 'p', 17): ('e3a5c202b810aa6491d462d2155784340e33f9c9eadf338569e522ec2642fa39', 'exhausted', 299, [6562332, 6064782], '3ce57c56d8b64513'),
    ('16x4', 'p', 64): ('08feefb7b90c3b2578e77ab72fd0cc140b018fccdae83fde9cc53941017e8ae7', 'exhausted', 931, [5878602, 4992642, 4209402], '155172e54f7ffb2e'),
    ('16x4', 'a', 2): ('33a02ed0da8f16ac0014c36f31e2b6409a8ed6c0fb9c554e6cb3983519c28c65', 'exhausted', 8, [], None),
    ('16x4', 'a', 5): ('34623791b3a579c5d165f541988a349483b45c6827d9a3b3b631929c4a5196cf', 'exhausted', 49, [], None),
    ('16x4', 'a', 17): ('3091932b4e5e2627f8f6e9e6fcb2213a2bce842d484efce9be376b816865a647', 'exhausted', 259, [4992642], 'd9e7539670461c74'),
    ('16x4', 'a', 64): ('050adc629edc2a480632188135b21ae040d2d7c64fddcb08a85f4734b840cac5', 'exhausted', 874, [7637682, 5220552, 4726212], 'ae4a381eaf3338cd'),
    ('20x6+defects', 'w', 2): ('588ae005c74fff7efac8032a040d59b2557998ed36afdf5bf2a185440dd36b01', 'exhausted', 31, [7897609, 7862299], '7904d3b52635528e'),
    ('20x6+defects', 'w', 5): ('26381adc8993cad7f59672939c9ab934878875553d9be2b981f8f4baf0c73de3', 'exhausted', 41, [], None),
    ('20x6+defects', 'w', 17): ('8737a72973983ae8177d7a026d2d9256279caef68238ede42d00177b90c4d9c9', 'exhausted', 297, [9403099, 5207629], 'd162cb150bbd49b9'),
    ('20x6+defects', 'w', 64): ('ffaa3d4f1e4118b57343082a6f67a848bfb110ca4c6109c1cd7ceda82ac18561', 'exhausted', 1354, [5483689, 4976509, 4629829], 'e67a284abda69704'),
    ('20x6+defects', 'p', 2): ('5d122969288093408e1bd1b658c96c0c3e748b42aa7fe393129abf732f492f79', 'exhausted', 17, [], None),
    ('20x6+defects', 'p', 5): ('8ed5ca6c4fc97fd64240741167eb01985bda4db951bd1ff096bbccfbf15439e2', 'exhausted', 19, [], None),
    ('20x6+defects', 'p', 17): ('fa2624cdf96d64ea1ce4f00b911b2a739b62eacce6ca994eec2255e825a31654', 'exhausted', 324, [9403099], '2e611005a8ed533e'),
    ('20x6+defects', 'p', 64): ('308c6f960fcfbbeec54012910370f224b7d8f15ba5f4aab5e413dc6470222c3c', 'exhausted', 981, [5673079, 4633039, 4228579], 'ee8dd157f3c02b21'),
    ('20x6+defects', 'a', 2): ('9039a702882e01274a1651485d44609529891bbda21a7a37b333635023b0137b', 'exhausted', 32, [4411549], 'c1f721b448f9d87e'),
    ('20x6+defects', 'a', 5): ('472dac894be76b714f14e7867f41b42364498cd5c86102d72013c78f411831b4', 'exhausted', 43, [], None),
    ('20x6+defects', 'a', 17): ('b739b783ad63aa77a8fc82ca98d3b44ba5bf85412e3b49de6402edef11daaccf', 'exhausted', 269, [5666659], '15d69c5f17e3c6ba'),
    ('20x6+defects', 'a', 64): ('3472bbbc7af7c1b8330bb1ce71dcdf7c22e2dcc67f066b94de8874fa830778a5', 'exhausted', 1171, [5779009, 5531839, 5326399, 4511059, 4263889], '1940b5c2067ce5a3'),
    ('24x8', 'w', 2): ('c213a2cb78024b00f96fa7ec45021fd1fd4bdc957fdba7aadcae605f0e82eb85', 'exhausted', 43, [9769063, 9249043], 'c435a72a3431c887'),
    ('24x8', 'w', 5): ('f837d3fdd600aadfba7d178bf79e8a09f2d7c62234b343189099e8f264ba8add', 'exhausted', 97, [13974163], '23e6ee349b0c7ee2'),
    ('24x8', 'w', 17): ('f05bdb4ace829a99fdd42fbfa5e172aa2af10ada4745c94da523c6fcf78a11a9', 'exhausted', 380, [5689153], '89831f5443651b34'),
    ('24x8', 'w', 64): ('582761d384772392dabadd7de00f799e7f412b2eb18a4d2de437402cf6f16eb9', 'exhausted', 1606, [7987513, 7929733, 5689153], '4c6904de88806cce'),
    ('24x8', 'p', 2): ('b2acc158de1287e0403b511a452ce7ac996871c6ed35e235edb490bb111b4ea9', 'exhausted', 12, [], None),
    ('24x8', 'p', 5): ('88c9efa63651c9943078c58d5d85f746e3a22ae0352fff5dd1ba8d488b5cbc3b', 'exhausted', 92, [], None),
    ('24x8', 'p', 17): ('17807f8cde568159b8767d26d874d3b82b716227fe7c07469bf12427467db145', 'exhausted', 428, [10414273], '19f22a02cd38da32'),
    ('24x8', 'p', 64): ('7e95460d7821c6903b9e62860106288dd1d0bd2f56d75635d754eb5876525172', 'exhausted', 1736, [8841373, 7987513, 7929733, 7881583, 5316793], 'e042443f143ca876'),
    ('24x8', 'a', 2): ('b2acc158de1287e0403b511a452ce7ac996871c6ed35e235edb490bb111b4ea9', 'exhausted', 12, [], None),
    ('24x8', 'a', 5): ('81fa33f7793bad7826249a5967e97640b04724ee63a9b260eae6d16367b426cf', 'exhausted', 75, [10122163], 'b198c45860504031'),
    ('24x8', 'a', 17): ('2009a294f3dec8c2a84e0666c7f8185ec2c9a1ded8dd82b4bdbec127228746c3', 'exhausted', 401, [13136353, 8212213], '318fa999e8b3c0ec'),
    ('24x8', 'a', 64): ('9bff5810b8e932b6601fc53c173b83caf9f38426be6d18dc7bd4d8f241c2f1b3', 'exhausted', 1901, [7987513, 7929733, 5689153], 'a8b97eab99e39182'),
    ('30x6+defects', 'w', 2): ('df6e141b7f7f6d38b2a5339541af010babce80058e68dd16e12c71512e55a0db', 'exhausted', 10, [], None),
    ('30x6+defects', 'w', 5): ('7f1886f4e18d7b8de05ea2a9f8c2d2f655afb80abd5adb44f4197eeade48981e', 'exhausted', 23, [], None),
    ('30x6+defects', 'w', 17): ('78dd7c62e1fd5f642640dbac4fa748d4be277e779a0b46bb1d1a2c72a3a4ddbe', 'exhausted', 108, [], None),
    ('30x6+defects', 'w', 64): ('9982dff171998cc3f10524dd6241c09fb5de36908bc8407e73f89d11467816bb', 'exhausted', 2188, [11456898, 8782968, 7961208], '4dfd33d8965ec9d3'),
    ('30x6+defects', 'p', 2): ('e45da079def6c56f6052cb98aea46e78f5adfff2ddaedbf186a4b25a75a387f9', 'exhausted', 9, [], None),
    ('30x6+defects', 'p', 5): ('1f48d099346f1858f1830403f9a8915ffb31170dbda2d1a115ac9791b797608e', 'exhausted', 24, [], None),
    ('30x6+defects', 'p', 17): ('a1618fb25163e2057e5c3fb63b520eac0fe0ac1a92fa2ad9957810fff58b162e', 'exhausted', 121, [], None),
    ('30x6+defects', 'p', 64): ('d92f00ff500dbc1726114995c47d186eacfbc93d145e6af4b8c6e1c5652a20f8', 'exhausted', 2642, [10638348, 7338468], '172182e48ea15a48'),
    ('30x6+defects', 'a', 2): ('a72f5bfdbdb162fa135a8268a8fcc5096399bbff0096aad3ef1b246ecfe60459', 'exhausted', 8, [], None),
    ('30x6+defects', 'a', 5): ('e855b45e4be22083f10e8ac4198afad93e6132dd9ffb8a38b7d6e83b3e823d4f', 'exhausted', 23, [], None),
    ('30x6+defects', 'a', 17): ('3a63800e31e5a01cda2ac750715115f4335dae95ac455f53fc54ac0fd1ab7ab7', 'exhausted', 489, [11036388, 9964248, 9864738], 'c8936780d87d3037'),
    ('30x6+defects', 'a', 64): ('728e926175023e909f54ab30b0704f5cff6737959f1d119a46d778556d75affb', 'exhausted', 1801, [11456898, 9896838, 9152118, 9071868, 8741238, 8185908, 6076938], '23e290c915ecad03'),
    ('40x6+defects', 'w', 2): ('719c47ef8cdda80bfceb7ee6a846e8655fe457eb49b1f9f443b9d4b4dbd03774', 'exhausted', 72, [22359907], '143579ecc121b074'),
    ('40x6+defects', 'w', 5): ('3e572ad1c96a5a84d0c1175796a9dce0c3950d80fec9e24b8b923e9296ab0d34', 'exhausted', 174, [13275607], '085208b49ef0f234'),
    ('40x6+defects', 'w', 17): ('b3a6e2d7195878be2d9a52f1ef95d8c5c364edc536d0f913ad91c54cff1c06be', 'exhausted', 706, [13532407, 13343017, 12344707], '82e5e025e9a1f01d'),
    ('40x6+defects', 'w', 64): ('d2c01cc051128301f4017f6db9420c8bd7891bd9c11f9f53320dd92d95fdfcf6', 'exhausted', 3132, [12344707, 11234047, 11150587], '2cf7b20b16b2ead4'),
    ('40x6+defects', 'p', 2): ('999eccd6df51991a0fdeadba3443e0479e9a9ee7b9454a82623aa86ab9a6035f', 'exhausted', 24, [], None),
    ('40x6+defects', 'p', 5): ('60fd526676a5dacfc3f270c07ca2a6e7216431ef03d28b17fd57cbee7010db02', 'exhausted', 157, [13497097], '15c2cc46c8931a55'),
    ('40x6+defects', 'p', 17): ('044eb60ff5e142e4f2487f1f0467399f4277ed3b5704078f284276b4d895aed1', 'exhausted', 659, [16549807, 14145517], 'c242b74cef8e5e33'),
    ('40x6+defects', 'p', 64): ('3afe69b349dc9032cece74dbe43142179fd3a1df667b0dc0a0bfcf279c6b8653', 'exhausted', 2048, [13118317, 10659457, 10437967, 9468547], '50fb8312a848f055'),
    ('40x6+defects', 'a', 2): ('3896b54de199080d1457ef4040eeeb9f065a48fd257ec7c16fbdac981a387afa', 'exhausted', 15, [], None),
    ('40x6+defects', 'a', 5): ('3c215f40f8c97ddb5670ab2e33345d2f0557e6bafb2d9be638fb2c86717a2c51', 'exhausted', 51, [], None),
    ('40x6+defects', 'a', 17): ('ce01425e37c63b53b99dfe64edfca227774c73d8ebba572d4ac9dbf5560a8ded', 'exhausted', 600, [12344707], '7b04e3e942fa5465'),
    ('40x6+defects', 'a', 64): ('df21e63fd8b5ef77c947ac361047d3b0774e0d25e313a74451346fe08b6b75aa', 'exhausted', 2359, [14566027, 11234047], '431cc464b20429d5'),
    ('20x3', 'w', 2): ('5ed89d2ed0aabfcbd73e00092e1425836b6a972e684a28f3ef7af00884a34ef1', 'exhausted', 15, [], None),
    ('20x3', 'w', 5): ('10303da79fdeb0bdfbc57f1f6eb9bf7acf0a3114476a00aad5a591a8465daa5f', 'exhausted', 53, [], None),
    ('20x3', 'w', 17): ('ef839d392fdc240cecb08faf4ef3d52b9d4ae7b68687630c151fb612e7f891f1', 'exhausted', 277, [3709286], '0f2b79e835b1f9b4'),
    ('20x3', 'w', 64): ('91f1441d4b935289643ff7805615650c0209fc67b1d009cb4a99f036424820dc', 'exhausted', 975, [10026566, 8026736, 3969296], 'cecc59d8dbcde6e0'),
    ('20x3', 'p', 2): ('7c34ac606a953be5dbdd115b9bdf9e7bd09c1513c9f8c578bd57be057101e062', 'exhausted', 14, [], None),
    ('20x3', 'p', 5): ('e5796f3f14b68695ec877201c3bce5b201c88286ae10f94b9a17052ac6a9c6eb', 'exhausted', 63, [11920466, 7785986], 'a0884aa5edea7f01'),
    ('20x3', 'p', 17): ('d47662d9ef90aab2028adf52cc00e67d8154a07bf0d606e980a89107363217fa', 'exhausted', 381, [10026566, 8026736, 7785986], 'eae155c835b77b8a'),
    ('20x3', 'p', 64): ('51ed12095b7a75f702021f1bbdda3ea8db93910ec4c8b8f77e750ca6bb9c5aca', 'exhausted', 806, [4611296, 3661136], 'd53c3f409d93d309'),
    ('20x3', 'a', 2): ('c1168be2616479a099807cdd6e7f219e4079c754ff88ec4aac8376814d4a055a', 'exhausted', 15, [], None),
    ('20x3', 'a', 5): ('11300a90e599c9f9032232b021c3162e4aa7b2c663271821f6de4f30e7541e48', 'exhausted', 86, [11920466, 10447076, 8935166], '22843d741608dacb'),
    ('20x3', 'a', 17): ('3552b605828da09e6f044f68d37cae6a065bfeb2ae1658332223509ea825dcb1', 'exhausted', 307, [10026566, 8026736, 7785986], 'f18a0834176ab561'),
    ('20x3', 'a', 64): ('f0cc213781b1ecba3d243d60ad941b1c711b1f69314768b8d07c0f0b08ba3f7e', 'exhausted', 1461, [4611296, 3661136], 'd53c3f409d93d309'),
}

# Full DPA* expansion traces: each run evicts 110-174 fronts from its store.
DPA_EXPECTED = {
    0: ('522764137d4e4ab8dd44126f4a7e55dce257005fca9e0783656c352a0e773014', 'exhausted', 790, [7670237, 5346197, 3375257, 3140927], '4ec8517081810ce6'),
    1: ('868228686bb0fb334b9edeb9ebd3233a9361b07f1564c7732ed84c872ecd7a93', 'exhausted', 577, [5603452, 5417272, 5365912, 5179732, 5109112, 4871572], '5ed450841e36673c'),
    2: ('0e6bf7493b21034977e4469d19e45d64cda7105ed36810f403f91aab7ac28463', 'exhausted', 720, [6017511, 5770341, 2977641], 'a71df2f6850045d5'),
}

SMALL_EXPECTED = {
    ('astar', 5, 'w'): ('exhausted', 155, [473589, 229389], 'f7c504e60d6d6a51'),
    ('astar', 5, 'p'): ('exhausted', 155, [473589, 229389], 'f7c504e60d6d6a51'),
    ('astar', 5, 'a'): ('exhausted', 312, [493389, 396189, 366189, 229389], 'f2c53f1db27757eb'),
    ('ibs', 5, 'w'): ('exhausted', 377, [473589, 229389], 'f7c504e60d6d6a51'),
    ('ibs', 5, 'p'): ('exhausted', 387, [473589, 229389], 'f2c53f1db27757eb'),
    ('ibs', 5, 'a'): ('exhausted', 372, [396189, 229389], 'f7c504e60d6d6a51'),
    ('dpastar', 5, 'w'): ('exhausted', 49, [473589, 229389], 'a901bb7d3daad936'),
    ('astar', 12, 'w'): ('exhausted', 77, [472091, 395891, 227291, 200291, 189491], '4e5220af57af84c9'),
    ('astar', 12, 'p'): ('exhausted', 61, [189491], '4e5220af57af84c9'),
    ('astar', 12, 'a'): ('exhausted', 75, [259691, 200291, 189491], '4e5220af57af84c9'),
    ('ibs', 12, 'w'): ('exhausted', 333, [472091, 395891, 217691, 200291, 189491], '4e5220af57af84c9'),
    ('ibs', 12, 'p'): ('exhausted', 315, [472091, 395891, 217691, 189491], '4e5220af57af84c9'),
    ('ibs', 12, 'a'): ('exhausted', 324, [217691, 189491], '4e5220af57af84c9'),
    ('dpastar', 12, 'w'): ('exhausted', 56, [217691, 216491, 164891], '84f2069ae615da6b'),
    ('astar', 17, 'w'): ('exhausted', 108, [192138], '9316ce365288ecb9'),
    ('astar', 17, 'p'): ('exhausted', 105, [192138], '9316ce365288ecb9'),
    ('astar', 17, 'a'): ('exhausted', 107, [192138], '9316ce365288ecb9'),
    ('ibs', 17, 'w'): ('exhausted', 348, [502338, 192138], '9316ce365288ecb9'),
    ('ibs', 17, 'p'): ('exhausted', 344, [502338, 192138], '9316ce365288ecb9'),
    ('ibs', 17, 'a'): ('exhausted', 345, [502338, 192138], '9316ce365288ecb9'),
    ('dpastar', 17, 'w'): ('exhausted', 38, [148338], '4e89432f942e2f61'),
    ('astar', 23, 'w'): ('exhausted', 752, [160423], '1413fb949d1a372c'),
    ('astar', 23, 'p'): ('exhausted', 718, [160423], '5cce12cbb6bfa521'),
    ('astar', 23, 'a'): ('exhausted', 726, [224623, 167023, 160423], '5cce12cbb6bfa521'),
    ('ibs', 23, 'w'): ('exhausted', 3675, [524623, 253423, 160423], '1413fb949d1a372c'),
    ('ibs', 23, 'p'): ('exhausted', 3596, [524623, 253423, 224623, 160423], '1413fb949d1a372c'),
    ('ibs', 23, 'a'): ('exhausted', 3539, [524623, 253423, 224623, 167023, 160423], '1413fb949d1a372c'),
    ('dpastar', 23, 'w'): ('exhausted', 238, [160423, 150223, 144223], '4f9a53bfe9d61396'),
    ('astar', 24, 'w'): ('exhausted', 164, [130191, 119991], '1719498b9c13ccad'),
    ('astar', 24, 'p'): ('exhausted', 164, [130191, 119991], '1719498b9c13ccad'),
    ('astar', 24, 'a'): ('exhausted', 165, [130191, 119991], '1719498b9c13ccad'),
    ('ibs', 24, 'w'): ('exhausted', 494, [446991, 406191, 130191, 119991], '1719498b9c13ccad'),
    ('ibs', 24, 'p'): ('exhausted', 491, [446991, 406191, 130191, 119991], '1719498b9c13ccad'),
    ('ibs', 24, 'a'): ('exhausted', 478, [446991, 406191, 233991, 130191, 119991], '1719498b9c13ccad'),
    ('dpastar', 24, 'w'): ('exhausted', 129, [130191, 119991, 115791], '525842dfec4431ea'),
    ('astar', 27, 'w'): ('exhausted', 163, [452432, 450032, 145232], '52ac3d0a5794b50b'),
    ('astar', 27, 'p'): ('exhausted', 155, [145232], '52ac3d0a5794b50b'),
    ('astar', 27, 'a'): ('exhausted', 155, [145232], '52ac3d0a5794b50b'),
    ('ibs', 27, 'w'): ('exhausted', 746, [452432, 450032, 259232, 145232], '52ac3d0a5794b50b'),
    ('ibs', 27, 'p'): ('exhausted', 745, [145232], '52ac3d0a5794b50b'),
    ('ibs', 27, 'a'): ('exhausted', 745, [145232], '52ac3d0a5794b50b'),
    ('dpastar', 27, 'w'): ('exhausted', 146, [452432, 450032, 145232, 114032, 111632], '72c9cf7eb55f59f5'),
}


@pytest.mark.parametrize("name,guide,capacity", sorted(MBA_EXPECTED))
def test_mba_star_trace_is_pinned(name, guide, capacity):
    assert run_mba(name, guide, capacity) == MBA_EXPECTED[name, guide, capacity]


@pytest.mark.parametrize("seed", sorted(DPA_EXPECTED))
def test_dpa_star_trace_is_pinned(seed):
    assert run_dpa(seed) == DPA_EXPECTED[seed]


@pytest.mark.parametrize("algorithm,seed,guide", sorted(SMALL_EXPECTED))
def test_other_searches_are_pinned(algorithm, seed, guide):
    assert run_small(algorithm, seed, guide) == SMALL_EXPECTED[algorithm, seed, guide]


def test_every_run_is_pinned():
    assert set(MBA_EXPECTED) == {
        (name, guide, cap) for name in MIDSIZE for guide in GUIDES for cap in CAPACITIES
    }
    assert set(DPA_EXPECTED) == set(DPA_SEEDS)
    assert set(SMALL_EXPECTED) == {
        (algo, seed, guide)
        for seed in SMALL_SEEDS
        for algo, guides in (("astar", GUIDES), ("ibs", GUIDES), ("dpastar", "w"))
        for guide in guides
    }
