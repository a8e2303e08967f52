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
    ('16x4', 'w', 5): ('281322cb179e2b35d0cab5f1c970c2bcfd700681c0354eef123fce3b6da1e46f', 'exhausted', 69, [6963582, 6302322, 4928442], 'b1a5545e52c79203'),
    ('16x4', 'w', 17): ('72d7d3434ce9951030a9b79eebd3db60ba6be2b380b3cefba0d0f921a5f52794', 'exhausted', 247, [6857652, 4629912], 'c50eac29c9816bd0'),
    ('16x4', 'w', 64): ('e54851735e59b44afc064710a0ea5009fb60b7b38801672933642b5b50fdb083', 'exhausted', 898, [6270222, 5355372, 4642752, 4581762], '897330993680e52e'),
    ('16x4', 'p', 2): ('33a02ed0da8f16ac0014c36f31e2b6409a8ed6c0fb9c554e6cb3983519c28c65', 'exhausted', 8, [], None),
    ('16x4', 'p', 5): ('7868f6f775d326e3dd6817f08401b1ba22a4c98752bf1999944103df995fe1b0', 'exhausted', 65, [5621802, 4247922], '29ce2a59fa87fa66'),
    ('16x4', 'p', 17): ('6c6bf954cee07fd6f854ec60cf3d57a2a8ecb08be3b66e9c4a5b1a0fcce7a5d3', 'exhausted', 244, [6957162, 6709992, 5300802, 4726212], '8de48df3a1b1bbd9'),
    ('16x4', 'p', 64): ('5dfcd95a8648ef8d3557576f523a5d9c80b5fa3d7f47eb4389dc51d9985793d9', 'exhausted', 830, [5592912, 5361792, 3496782], '2ba414d73ac53ce2'),
    ('16x4', 'a', 2): ('33a02ed0da8f16ac0014c36f31e2b6409a8ed6c0fb9c554e6cb3983519c28c65', 'exhausted', 8, [], None),
    ('16x4', 'a', 5): ('70428743468e30d7b81575d98ea327c4d55d6fc5ae3c1ad5aec6f7cb90e3a0de', 'exhausted', 50, [7175442, 5621802], 'f36671cac705d208'),
    ('16x4', 'a', 17): ('6b79b50f0285ec84b08eb0cab6fcd99cebf21cbce7016874a4486a6f807a11f0', 'exhausted', 187, [7644102, 6302322, 4928442], '0d6196e6588c6e53'),
    ('16x4', 'a', 64): ('353fcbf10052282b39c147628f1f492a8bc1ee6bd58c7b4a7a936f306d43adb2', 'exhausted', 816, [5541552, 4443732, 3981492, 3593082, 3551352, 3487152], '7f2188e65a35e24e'),
    ('20x6+defects', 'w', 2): ('3a54f3a95f5f69ef2e84c6a722a9fd56d4894a683b94ae615ba432bbc889bf43', 'exhausted', 32, [5156269], '856725d1118796d6'),
    ('20x6+defects', 'w', 5): ('9881667f77dec18a600dc76a5541395b457d4f72b9c0387b96d3bd7f86815bde', 'exhausted', 49, [], None),
    ('20x6+defects', 'w', 17): ('d0844fa2a2273e17eabd5dc25a8b61dfdf2fd912e35b99d851fbee22cd3553ea', 'exhausted', 284, [5133799, 5108119, 4620199], '8e7f30353922ef0d'),
    ('20x6+defects', 'w', 64): ('0d0ec07ec80c34a25bce15aea13182c2aa611b4453e1bdf33f27b3c2a25db34f', 'exhausted', 1347, [5230099, 5165899, 4186849], 'db8090c57d23c3e2'),
    ('20x6+defects', 'p', 2): ('9b34415cfa6616c8249bdd44db28be611246bcbba88546636dbb27c0d40cccbd', 'exhausted', 28, [], None),
    ('20x6+defects', 'p', 5): ('2974cc13181f7b86f19a94cd4901aaaabcf2f0e0fe3f1b9db26966feeb6e714d', 'exhausted', 20, [], None),
    ('20x6+defects', 'p', 17): ('960e24fa9ae0843961f90b057ef9cb10df31f35d14595a4d5cf8acd0193e7dee', 'exhausted', 294, [5701969, 4860949, 4796749, 4421179], '81e31d451c996cad'),
    ('20x6+defects', 'p', 64): ('1a305c3eec486d68c416c74a4917b3a281ddaa9957a23569ca7d7f25a2f0b094', 'exhausted', 1753, [4857739, 4738969, 4026349, 3984619, 3907579], '477d57ab5e1f5e91'),
    ('20x6+defects', 'a', 2): ('07cf605095ba3fa19c0bd20ed9690941e3858af714d2f9848d868fb93d5e2252', 'exhausted', 40, [], None),
    ('20x6+defects', 'a', 5): ('a06a6e58de3219c510464e018ccdf387d125cb455e065dfeb8fbf8511dba10e1', 'exhausted', 91, [4164379], 'c2036c4e3321d8e0'),
    ('20x6+defects', 'a', 17): ('443016312d4eec33ec6daa17c2b6107ff38968c8cc30c35d204758ea830fbf8a', 'exhausted', 376, [4090549], '04409d3e0ee1f54b'),
    ('20x6+defects', 'a', 64): ('92522e8db971532984b1b53249ef4010cded0fc3db1a214bd132a0dfb9c2a406', 'exhausted', 1094, [5490109, 4857739, 4828849, 4738969, 4026349], 'e1b195727cac2fc3'),
    ('24x8', 'w', 2): ('c213a2cb78024b00f96fa7ec45021fd1fd4bdc957fdba7aadcae605f0e82eb85', 'exhausted', 43, [9769063, 9249043], 'c435a72a3431c887'),
    ('24x8', 'w', 5): ('65b99e28a73ab81278a6a61d2295454322ee9a8ed520b1f4e25d1eaec48606f6', 'exhausted', 79, [], None),
    ('24x8', 'w', 17): ('f116a386ca8506be9d91a9c5c56335db12cdd6b0a5af21dcb664ac951bbd13a4', 'exhausted', 443, [6790183, 5689153], '7ae2b5afbbacfa8a'),
    ('24x8', 'w', 64): ('6c3bce1d4cc3bdc8d489aebf28c73e1d851944f9c0117e1b6c6a8231eadd88f1', 'exhausted', 1598, [10250563, 8773963, 6225223, 5689153], '7c1c1231f683958f'),
    ('24x8', 'p', 2): ('4c2900f85d26f654eb31cf7a69b83647e842844bf0b8a77aff2c398ad74bff72', 'exhausted', 44, [7987513, 7692193], '4f525df26951a60a'),
    ('24x8', 'p', 5): ('e766251b3bebc0c17dab5dfc454f7725d4c86ac98bf8bb714a3cf83f46fc1e7f', 'exhausted', 63, [], None),
    ('24x8', 'p', 17): ('5a843e4f630fbf3140994e6addd0548db1541d3c821cbf29586506ca37d940bd', 'exhausted', 293, [9528313, 7987513, 7692193, 7634413], 'f3b15347abb39861'),
    ('24x8', 'p', 64): ('367f4c528f6d962a0eaa2e48acbe032b0ca2af92a99014f63a23c382cbe71264', 'exhausted', 1771, [9576463, 9396703, 7987513, 7692193, 7634413], 'c2dd203889c49ef7'),
    ('24x8', 'a', 2): ('963144024bfe9f2ee3bc377b1689cc9356f6da03fa8ff5b4cd343c246f1b4e66', 'exhausted', 43, [7692193], '4f525df26951a60a'),
    ('24x8', 'a', 5): ('731f1693d5f63a95f7da81bf8f6490162ff2244fecfb291c9864b36421661ac4', 'exhausted', 36, [], None),
    ('24x8', 'a', 17): ('4421360c05db83a4829052464ef022e0b349e222cca2cf803a11b2bfcbf53fa5', 'exhausted', 327, [7929733], 'bbb9b2f76b1d3349'),
    ('24x8', 'a', 64): ('e8e8db7cc78cabe129f4e6446c87816cfda11091c61e11730823214c57aa380b', 'exhausted', 1696, [8009983, 5194813, 4905913, 4889863], '1aa0bc862d0b323d'),
    ('30x6+defects', 'w', 2): ('90b1c586158228804fee9c02cdebccc13eb9556ca6e8d4b3027edc3752137901', 'exhausted', 9, [], None),
    ('30x6+defects', 'w', 5): ('6e6ab8e7f9beb96a508c4cd649d4026fe4ab8dee32cb824a21eeaa85135aebe0', 'exhausted', 24, [], None),
    ('30x6+defects', 'w', 17): ('f262265f31fb8d13bc19e3d4dc563592ea0b9f51432b387078bfd972673a3070', 'exhausted', 89, [], None),
    ('30x6+defects', 'w', 64): ('3aeb0451567213da05031ead147e04853ece6e491d1d6a474a4c35158ce28406', 'exhausted', 1871, [5861868, 5656428, 4629228], '37ec8888f477d248'),
    ('30x6+defects', 'p', 2): ('a7026fc0fe6f059edd9f79342f80a8e7bb5fb0c060c8bc50489b81064ee1fadf', 'exhausted', 9, [], None),
    ('30x6+defects', 'p', 5): ('7554b8d5d18e7c74b47a1190336ea79730520aa679344a36626ff7d9199b9025', 'exhausted', 26, [], None),
    ('30x6+defects', 'p', 17): ('0456bc916f34e92b15badd0b08208ecb95a5b08f3c44017f4002dab925607032', 'exhausted', 408, [10057338, 8449128, 6535968, 5611488], '40f37a1af73bf57b'),
    ('30x6+defects', 'p', 64): ('3e4bfbedf82931eb5092fa858e79583325fb0782d37af3a5a3c6978c99168f38', 'exhausted', 1967, [8782968, 7338468], '95a79272597c9d44'),
    ('30x6+defects', 'a', 2): ('1076cb2166318d7f24c92834529d8863ca2c7c8e5f9148cec3a3be914bb89d5a', 'exhausted', 8, [], None),
    ('30x6+defects', 'a', 5): ('9588e35fdf5235e901590269eb0b79ab0e825a4300d0300997f3b845cdbf59f9', 'exhausted', 25, [], None),
    ('30x6+defects', 'a', 17): ('e411609f2f6c83bd019871c792ceda15468c0169a52ec97fdaaa8155eba53398', 'exhausted', 398, [12313968, 8782968, 8654568], 'fd257e0ac26e77f5'),
    ('30x6+defects', 'a', 64): ('1d8c03188b825e7d29ee7fc8859bca59259492241d093a6a13d8d3f448d27771', 'exhausted', 1621, [11110218, 10217838, 8782968, 7226118], 'e6d4a8466bdbf256'),
    ('40x6+defects', 'w', 2): ('719c47ef8cdda80bfceb7ee6a846e8655fe457eb49b1f9f443b9d4b4dbd03774', 'exhausted', 72, [22359907], '143579ecc121b074'),
    ('40x6+defects', 'w', 5): ('d2e0b5dc002b34e8c748c861c4519fef9df3e8e0471bc0d114f6e3e4323dd11a', 'exhausted', 166, [12999547, 12344707], '9a1b504aeb1057a8'),
    ('40x6+defects', 'w', 17): ('1fcef57bb379a1a91345b0f15457d1ee86af116b777339bd96a8283311f937df', 'exhausted', 716, [13609447, 13118317, 11388127, 10896997], '7b224cc0c8e7e27c'),
    ('40x6+defects', 'w', 64): ('575d1e7a994d3acc5c49b305fa5382d928cf3500e0379e903577d099980bc28a', 'exhausted', 3185, [13124737, 12363967, 12174577, 11198737, 10437967], '8612bd4e14066a7d'),
    ('40x6+defects', 'p', 2): ('b5c2670a5cf4b8b0288f05122a0169aef01485255d3b87dc34b1b51b87e67046', 'exhausted', 41, [], None),
    ('40x6+defects', 'p', 5): ('ed281ed6eb071d17f64af533694d2cdfa579c0b627083fd0de90776b3ab832c6', 'exhausted', 174, [14521087], '2f2406cab158643d'),
    ('40x6+defects', 'p', 17): ('47f8d6497a941b4c18c299cfcbe0bae3835b5abd9ca8129c4fcdd7704a0d4fa2', 'exhausted', 279, [], None),
    ('40x6+defects', 'p', 64): ('e2346ba59fe64310de3d23553b4f23a0acdbb73453b09e8d6d84826281a4ea7b', 'exhausted', 2792, [12344707, 11234047], '7f9369258b7ff8f0'),
    ('40x6+defects', 'a', 2): ('c531794827ab9305baa261421ca0df37cd66c79b6264adcc31d2fd556755f706', 'exhausted', 29, [], None),
    ('40x6+defects', 'a', 5): ('a8f7b184befca6d3095fd4ea1bd0569afcec1764ea54d1d892068f9580a42c38', 'exhausted', 60, [], None),
    ('40x6+defects', 'a', 17): ('a59c5d23dba4f67b2333717df9c00217fca4a3cafa742395b6c25a4bfe050840', 'exhausted', 696, [11234047], '4fe65c3002d05058'),
    ('40x6+defects', 'a', 64): ('286b8fa1c8cdccfe75422aa5e4d6540e465825a9b3bc96763e513f99d2dac8f6', 'exhausted', 2135, [12344707, 11234047], '690a3c87c12e1b1c'),
    ('20x3', 'w', 2): ('5ed89d2ed0aabfcbd73e00092e1425836b6a972e684a28f3ef7af00884a34ef1', 'exhausted', 15, [], None),
    ('20x3', 'w', 5): ('7df1fc51beb8870fa9757f0c47dfd52d7510b49f63f996df32f27ba46da16cfd', 'exhausted', 105, [15445046], '2bed3e1c9e0b84c1'),
    ('20x3', 'w', 17): ('7cfc1bf60584ea0ad579c3777e321f55e9b741381703aee68f4cfe25da09087c', 'exhausted', 293, [10026566, 8026736, 7850186], '53f25baf833e6397'),
    ('20x3', 'w', 64): ('39431e9409282afe1521fdb1ee9d330dfd1b270dc47d6a517ef4f36cfd441e10', 'exhausted', 1021, [3709286, 3574466], '56c8054ce8a083b1'),
    ('20x3', 'p', 2): ('7c34ac606a953be5dbdd115b9bdf9e7bd09c1513c9f8c578bd57be057101e062', 'exhausted', 14, [], None),
    ('20x3', 'p', 5): ('70b6d72f84d4454881ffb83566bef499e72454a521e063d8bf51ef7aa181bc0a', 'exhausted', 69, [16000376, 15445046], '2411d525c8173029'),
    ('20x3', 'p', 17): ('d2035419ab22dc232ac9c8982fbef72ed8b624c1ff5722f041895093d55c6b39', 'exhausted', 362, [4611296], '5212b69686fca8f5'),
    ('20x3', 'p', 64): ('9a29df4249481c057672ba7058bc4b69d8635487eae92f2d2d1f89c91671c95f', 'exhausted', 825, [4611296, 3661136], '837a83a4f54d38a9'),
    ('20x3', 'a', 2): ('c1168be2616479a099807cdd6e7f219e4079c754ff88ec4aac8376814d4a055a', 'exhausted', 15, [], None),
    ('20x3', 'a', 5): ('0cfbeeed73397277a490da5b2fac559fcc1a156af349ca47a99e4fa0db285673', 'exhausted', 74, [16000376, 15445046], 'a3723a89e3a87299'),
    ('20x3', 'a', 17): ('8d7a0cdf8e83a7c1a109afe17963d29c07738748abce559f30942a5c7fcca1da', 'exhausted', 299, [10447076, 5924186, 5831096, 4675496, 4457216], 'c6fe7985477c20f1'),
    ('20x3', 'a', 64): ('075d64bdd853951b43f006c5fb971e4c034ff508fe520f7079bbe9830bb40616', 'exhausted', 936, [4675496, 3661136], '837a83a4f54d38a9'),
}

# Full DPA* expansion traces: each run evicts 110-174 fronts from its store.
DPA_EXPECTED = {
    0: ('522764137d4e4ab8dd44126f4a7e55dce257005fca9e0783656c352a0e773014', 'exhausted', 790, [7670237, 5346197, 3375257, 3140927], '4ec8517081810ce6'),
    1: ('868228686bb0fb334b9edeb9ebd3233a9361b07f1564c7732ed84c872ecd7a93', 'exhausted', 577, [5603452, 5417272, 5365912, 5179732, 5109112, 4871572], '5ed450841e36673c'),
    2: ('0e6bf7493b21034977e4469d19e45d64cda7105ed36810f403f91aab7ac28463', 'exhausted', 720, [6017511, 5770341, 2977641], 'a71df2f6850045d5'),
}

SMALL_EXPECTED = {
    ('astar', 5, 'w'): ('exhausted', 185, [473589, 229389], 'a901bb7d3daad936'),
    ('astar', 5, 'p'): ('exhausted', 185, [473589, 229389], 'a901bb7d3daad936'),
    ('astar', 5, 'a'): ('exhausted', 251, [493389, 396189, 366189, 229389], '22b6b955e4caf607'),
    ('ibs', 5, 'w'): ('exhausted', 445, [473589, 229389], 'f7c504e60d6d6a51'),
    ('ibs', 5, 'p'): ('exhausted', 436, [473589, 229389], 'a901bb7d3daad936'),
    ('ibs', 5, 'a'): ('exhausted', 432, [396189, 229389], 'a901bb7d3daad936'),
    ('dpastar', 5, 'w'): ('exhausted', 49, [473589, 229389], 'a901bb7d3daad936'),
    ('astar', 12, 'w'): ('exhausted', 72, [217691, 216491, 200291, 166091], '4a592ed1a90d6295'),
    ('astar', 12, 'p'): ('exhausted', 52, [166091], '4a592ed1a90d6295'),
    ('astar', 12, 'a'): ('exhausted', 62, [217691, 200291, 166091], '4a592ed1a90d6295'),
    ('ibs', 12, 'w'): ('exhausted', 157, [472091, 395891, 216491, 200291, 166091], '4a592ed1a90d6295'),
    ('ibs', 12, 'p'): ('exhausted', 130, [166091], '4a592ed1a90d6295'),
    ('ibs', 12, 'a'): ('exhausted', 131, [217691, 166091], '4a592ed1a90d6295'),
    ('dpastar', 12, 'w'): ('exhausted', 56, [217691, 216491, 164891], '84f2069ae615da6b'),
    ('astar', 17, 'w'): ('exhausted', 108, [192138], '9316ce365288ecb9'),
    ('astar', 17, 'p'): ('exhausted', 105, [192138], '9316ce365288ecb9'),
    ('astar', 17, 'a'): ('exhausted', 107, [192138], '9316ce365288ecb9'),
    ('ibs', 17, 'w'): ('exhausted', 323, [502338, 192138], '9316ce365288ecb9'),
    ('ibs', 17, 'p'): ('exhausted', 323, [502338, 192138], '9316ce365288ecb9'),
    ('ibs', 17, 'a'): ('exhausted', 322, [502338, 192138], '9316ce365288ecb9'),
    ('dpastar', 17, 'w'): ('exhausted', 38, [148338], '4e89432f942e2f61'),
    ('astar', 23, 'w'): ('exhausted', 749, [160423, 150223], '5395de9940250dd0'),
    ('astar', 23, 'p'): ('exhausted', 683, [160423, 150223], '5395de9940250dd0'),
    ('astar', 23, 'a'): ('exhausted', 692, [224623, 167023, 150223], '5395de9940250dd0'),
    ('ibs', 23, 'w'): ('exhausted', 1882, [524623, 211423, 160423, 150223], '5395de9940250dd0'),
    ('ibs', 23, 'p'): ('exhausted', 1810, [524623, 224623, 220423, 160423, 150223], '5395de9940250dd0'),
    ('ibs', 23, 'a'): ('exhausted', 1752, [524623, 224623, 211423, 160423, 150223], '5395de9940250dd0'),
    ('dpastar', 23, 'w'): ('exhausted', 238, [160423, 150223, 144223], '4f9a53bfe9d61396'),
    ('astar', 24, 'w'): ('exhausted', 174, [130191, 119991], '1719498b9c13ccad'),
    ('astar', 24, 'p'): ('exhausted', 174, [130191, 119991], '1719498b9c13ccad'),
    ('astar', 24, 'a'): ('exhausted', 175, [130191, 119991], '1719498b9c13ccad'),
    ('ibs', 24, 'w'): ('exhausted', 472, [446991, 406191, 130191, 119991], '1719498b9c13ccad'),
    ('ibs', 24, 'p'): ('exhausted', 465, [446991, 416391, 233991, 130191, 119991], '1719498b9c13ccad'),
    ('ibs', 24, 'a'): ('exhausted', 456, [446991, 406191, 233991, 130191, 119991], '1719498b9c13ccad'),
    ('dpastar', 24, 'w'): ('exhausted', 129, [130191, 119991, 115791], '525842dfec4431ea'),
    ('astar', 27, 'w'): ('exhausted', 180, [452432, 450032, 145232, 141632], 'ca712aa08c33ded4'),
    ('astar', 27, 'p'): ('exhausted', 159, [145232, 141632], 'ca712aa08c33ded4'),
    ('astar', 27, 'a'): ('exhausted', 162, [145232, 141632], 'ca712aa08c33ded4'),
    ('ibs', 27, 'w'): ('exhausted', 441, [452432, 450032, 259232, 145232, 141632], 'ca712aa08c33ded4'),
    ('ibs', 27, 'p'): ('exhausted', 442, [259232, 145232, 141632], 'ca712aa08c33ded4'),
    ('ibs', 27, 'a'): ('exhausted', 435, [259232, 145232, 141632], 'ca712aa08c33ded4'),
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
