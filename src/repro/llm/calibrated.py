"""Pre-calibrated corruption depths of the paper's cells (generated).

Do not edit: ``python -m repro.core.calibration_table`` writes this
module and ``--check`` fails when it drifts from a from-scratch
calibration.  Each row maps (model name, cell key) to (fingerprint,
k, achieved BLEU); the simulator uses a row only when the fingerprint
of the cell's reference, operators and target matches it.
"""

CALIBRATED = {
    ('sim/claude-sonnet-4', ('annotation', 'adios2', 'detailed', False, False)):
        ('f25508b9e49f3832c5307db052465bd323314660322880bae29e53ab33abba02', 137, 36.283051681735145),
    ('sim/claude-sonnet-4', ('annotation', 'adios2', 'different-style', False, False)):
        ('cfd5821c4c8a60b7c18efb6a78701fff6ba9da0bef605629722a787934d44cb2', 137, 38.34833796515545),
    ('sim/claude-sonnet-4', ('annotation', 'adios2', 'original', False, False)):
        ('0c36e000d8b95be428b8ad2ec42f6ef03bfdb88e5eada981adfe4acf42cdacfd', 119, 37.350217784296795),
    ('sim/claude-sonnet-4', ('annotation', 'adios2', 'paraphrased', False, False)):
        ('79e496b1de9c250d5b57043c17b24611f6cd195f8bc3967badfd38deb217677f', 113, 36.986454800138695),
    ('sim/claude-sonnet-4', ('annotation', 'adios2', 'reordered', False, False)):
        ('980c712cd156610cf539c110a191a32a83bbaba7413aa7e9167fb5b01c4b7ac3', 129, 38.72010348766861),
    ('sim/claude-sonnet-4', ('annotation', 'henson', 'detailed', False, False)):
        ('b8ec04505b35f53cf401f851067387ddd6650af109302e9d9c0e928301a7aef7', 101, 19.99815327201957),
    ('sim/claude-sonnet-4', ('annotation', 'henson', 'different-style', False, False)):
        ('bf292fed816543b9cab03b1786be8b550a0d2b155030cf6b168b861230ba39f0', 80, 35.819007948417195),
    ('sim/claude-sonnet-4', ('annotation', 'henson', 'original', False, False)):
        ('edb05eea0c9bc37f7eec830362d51eab42a16585172bd90a589798ddac174b46', 55, 42.243936457350415),
    ('sim/claude-sonnet-4', ('annotation', 'henson', 'paraphrased', False, False)):
        ('de92b55084aa2d061bfac03b3b79be035d9555720991abfce1078f4ac0c17edf', 77, 39.70026096925805),
    ('sim/claude-sonnet-4', ('annotation', 'henson', 'reordered', False, False)):
        ('4565ced3d07c07d89fbc61bd2dd97956552c37d87393114236f6e888481d9b83', 75, 38.90676964735798),
    ('sim/claude-sonnet-4', ('annotation', 'parsl', 'detailed', False, False)):
        ('c1a1d580f24c397354ab5bece39bc81699342119e483dee8a0cd870d298a6296', 27, 64.72175978782002),
    ('sim/claude-sonnet-4', ('annotation', 'parsl', 'different-style', False, False)):
        ('0c1d83d45f48540f4ba693f8edd9c13de1f15c009dd8e23b72c76db9cb912689', 20, 71.1116600336299),
    ('sim/claude-sonnet-4', ('annotation', 'parsl', 'original', False, False)):
        ('15ea28e44b081e1cd85c3374134a7af0ff1de9a5c8b2333c11df97e84fbcd874', 74, 37.044453292685674),
    ('sim/claude-sonnet-4', ('annotation', 'parsl', 'paraphrased', False, False)):
        ('33172277aa6ef1420931475b54c904e90bbb2791b5c36988d93e35e51dbd2644', 79, 15.25769703789092),
    ('sim/claude-sonnet-4', ('annotation', 'parsl', 'reordered', False, False)):
        ('66d77e159ff1a7f715376ca2e514b4420e0feaf796cbf9785a885adfe4f77355', 87, 6.523822081653759),
    ('sim/claude-sonnet-4', ('annotation', 'pycompss', 'detailed', False, False)):
        ('245637b8d6078a500520493c08a1611dfb37bfc841314cdc95c19ce5c6117b2e', 0, 100.0),
    ('sim/claude-sonnet-4', ('annotation', 'pycompss', 'different-style', False, False)):
        ('910fe2e709f3716546cd30775c45303a01db3b86373657982d657d3eb53cbc19', 40, 49.44465005291491),
    ('sim/claude-sonnet-4', ('annotation', 'pycompss', 'original', False, False)):
        ('d99960d620c67ab49f9f0911d85a8ef88ad292a093a768e69a1144f952fbdf4a', 31, 49.456743624063165),
    ('sim/claude-sonnet-4', ('annotation', 'pycompss', 'paraphrased', False, False)):
        ('67b8c5f716ac45b33a4dc77ff219d2e00664456993a714dceefb72d6db20a344', 33, 51.49615069782567),
    ('sim/claude-sonnet-4', ('annotation', 'pycompss', 'reordered', False, False)):
        ('789d8a2711cb57b1f089359b2ac8acc703393d3e1c1eeae5292c0ca62bfdfa44', 38, 49.60458262516291),
    ('sim/claude-sonnet-4', ('configuration', 'adios2', 'detailed', False, False)):
        ('4a0c1fdbea78404b3876781526019b484cc0dba06d9baa11108e7bfa6ae48178', 13, 60.87860549842083),
    ('sim/claude-sonnet-4', ('configuration', 'adios2', 'different-style', False, False)):
        ('8f5769125bd04aef38f44abee084a2c1d15d63fe7170454ab531f41403707bad', 16, 51.73708351512636),
    ('sim/claude-sonnet-4', ('configuration', 'adios2', 'original', False, False)):
        ('1a7e8df20a0bd45b43a0a1806cd845dc795b24ab82aa87585b7b739216b1af50', 11, 74.37266386209895),
    ('sim/claude-sonnet-4', ('configuration', 'adios2', 'original', True, False)):
        ('76f8210ea23ee39d89dcc141885e149b36ff805d1b791cff7cd449cdb13caf21', 1, 96.11104786195432),
    ('sim/claude-sonnet-4', ('configuration', 'adios2', 'paraphrased', False, False)):
        ('244e81190b57751f90598191482f4f079d430a86f7c913ff0f7e06703e5b200d', 15, 61.91177918774908),
    ('sim/claude-sonnet-4', ('configuration', 'adios2', 'reordered', False, False)):
        ('ed95170f38347fb8280b6559c5cdf708e00d46e73eafbab7d5a52510dab80fc1', 13, 72.84303326577783),
    ('sim/claude-sonnet-4', ('configuration', 'henson', 'detailed', False, False)):
        ('4f24dcf2596b217131bbf002817792b5590e7ee95092b88554fba6fc4b60b699', 7, 28.149915538577606),
    ('sim/claude-sonnet-4', ('configuration', 'henson', 'different-style', False, False)):
        ('5d7a2ea3e8bdea095dc7de7f4848073091a45a45a9604156ac44b4a3d4f81406', 7, 28.149915538577606),
    ('sim/claude-sonnet-4', ('configuration', 'henson', 'original', False, False)):
        ('811e87944f3d1e4efd0a92971efbf49103423e87e329e0be7266998200c2e2c5', 7, 28.149915538577606),
    ('sim/claude-sonnet-4', ('configuration', 'henson', 'original', True, False)):
        ('f24cf882a0d0cd256fe17d48bf8e9bcf4a264778c5c176aa7e48c59c85f6f4e5', 1, 88.46179250781582),
    ('sim/claude-sonnet-4', ('configuration', 'henson', 'paraphrased', False, False)):
        ('51abeb6a85137b855868d7895748291a44e639c8f02fb4e304604567a5a5a703', 8, 18.13696798975344),
    ('sim/claude-sonnet-4', ('configuration', 'henson', 'reordered', False, False)):
        ('2b6597daa48409423aef02ed51bab1b3e286051cd452d50fad3cf76a7b551700', 11, 18.179171301893067),
    ('sim/claude-sonnet-4', ('configuration', 'wilkins', 'detailed', False, False)):
        ('4b75086a95109c590f871df04477768cb0b33e9d168657458cf16405b157a9a1', 21, 42.62587770743853),
    ('sim/claude-sonnet-4', ('configuration', 'wilkins', 'different-style', False, False)):
        ('6ef5c428b2705c1097d8b87bbd526dc92728c465efc87c8f9dced8e1177299c3', 21, 38.08420902600054),
    ('sim/claude-sonnet-4', ('configuration', 'wilkins', 'original', False, False)):
        ('055827e0733c0ba9bc74ed5400499369359bb7231873bb27e3af30bc8de3b275', 21, 36.63084374437678),
    ('sim/claude-sonnet-4', ('configuration', 'wilkins', 'original', True, False)):
        ('0266781655f06dfbeb53d86a4e5698b209387ec8172e09f7bb12f2d95e97146d', 2, 91.73445714175772),
    ('sim/claude-sonnet-4', ('configuration', 'wilkins', 'paraphrased', False, False)):
        ('5900201a45f4e697932ba96e1b6636851c5bb3f5849ca3a0b034f79a19a4f56c', 18, 39.842147939770996),
    ('sim/claude-sonnet-4', ('configuration', 'wilkins', 'reordered', False, False)):
        ('62c7498c1de940cb16c301d8046d316fcc81bcbc8743f9b7ee8ed53cb0bb4a2b', 25, 37.27882570653446),
    ('sim/claude-sonnet-4', ('translation', ('adios2', 'henson'), 'detailed', False, False)):
        ('30203e08158b25a0a239045c2ae48edf7159f755d4edfec59b8f95bd43aab218', 212, 35.855819861497594),
    ('sim/claude-sonnet-4', ('translation', ('adios2', 'henson'), 'different-style', False, False)):
        ('30190542c64807681908045ffd537aa76b6e6eb7514eaa7f205ef14d099fb5b8', 213, 33.96758563822373),
    ('sim/claude-sonnet-4', ('translation', ('adios2', 'henson'), 'original', False, False)):
        ('4c0308a94a921a7fe94c25667e7ea2f7dd0dd2ab4c6c2202af1574cdac82a2ab', 207, 32.03214817071092),
    ('sim/claude-sonnet-4', ('translation', ('adios2', 'henson'), 'paraphrased', False, False)):
        ('379a74dada6bc9bf44076e41e5ba189c4122c6372b3b3f89862ec19d96ad4afc', 209, 32.920215170184946),
    ('sim/claude-sonnet-4', ('translation', ('adios2', 'henson'), 'reordered', False, False)):
        ('89947b8c96498f3a36d3b51c2bc9e4d195170599f17a708667ca9a583587936c', 213, 33.78453620118121),
    ('sim/claude-sonnet-4', ('translation', ('henson', 'adios2'), 'detailed', False, False)):
        ('f365ed4f90b74ee42f9a9c36259ab424e455980c374fd7fa282a978518d39eae', 126, 28.976315801872875),
    ('sim/claude-sonnet-4', ('translation', ('henson', 'adios2'), 'different-style', False, False)):
        ('20c74e738c5b0edb62b8e510fa28a1e7acbde6b51554c41f8c0e807c633f8b98', 140, 27.116807915266424),
    ('sim/claude-sonnet-4', ('translation', ('henson', 'adios2'), 'original', False, False)):
        ('dc20525c0b057b3a9e62e16885515e825217e3f2d066a0d3de072ab5e867d2af', 127, 33.99749652113626),
    ('sim/claude-sonnet-4', ('translation', ('henson', 'adios2'), 'paraphrased', False, False)):
        ('482aa6a1628bfca8721de37384d015fc6e68379505c11501914edfa292284bc4', 140, 28.15670744717504),
    ('sim/claude-sonnet-4', ('translation', ('henson', 'adios2'), 'reordered', False, False)):
        ('505a6fe305375ba159fdde22cb41e5ead730fd4bc1e6aaaf9daca7fbacc0c25e', 139, 29.079229549397837),
    ('sim/claude-sonnet-4', ('translation', ('parsl', 'pycompss'), 'detailed', False, False)):
        ('caee47a67c0f28f63f02f79bc1c7fd63ebf15685e507fde258492a6ab124bdcf', 2, 97.36785671744194),
    ('sim/claude-sonnet-4', ('translation', ('parsl', 'pycompss'), 'different-style', False, False)):
        ('cdae24bf6c14cc6073ae667dd0a5fd300967c9db72281e41c1480d606201af91', 14, 82.08094310753904),
    ('sim/claude-sonnet-4', ('translation', ('parsl', 'pycompss'), 'original', False, False)):
        ('45ea6c2a04ada31b988e6bdebc9ae002cc619090e559ed6f777b466f76bcc904', 39, 48.94696512476532),
    ('sim/claude-sonnet-4', ('translation', ('parsl', 'pycompss'), 'paraphrased', False, False)):
        ('cd6e40b897dec2ca495c971f7bca33d23dc8b557730b5d1fd7c43514d8465fc3', 35, 49.07022804764791),
    ('sim/claude-sonnet-4', ('translation', ('parsl', 'pycompss'), 'reordered', False, False)):
        ('3dbcd12f9adf82c68a8fd32c85ef045ad97f49518ce4d91e53848036f38237d3', 35, 48.90514636721366),
    ('sim/claude-sonnet-4', ('translation', ('pycompss', 'parsl'), 'detailed', False, False)):
        ('aec6f69bbb9c907537d448edb9bcead0d84390b7a136ba23286e9941cd07becd', 74, 32.65348747698531),
    ('sim/claude-sonnet-4', ('translation', ('pycompss', 'parsl'), 'different-style', False, False)):
        ('16ba320ab028000e852808e11b0e0ad1f1078a27d3c803e29bef5b33a49b608a', 77, 26.041957038407254),
    ('sim/claude-sonnet-4', ('translation', ('pycompss', 'parsl'), 'original', False, False)):
        ('597d83c881d5c27cca44a93e5dde84794681fa9a9cb205032caacfbd5da74a50', 79, 21.13661758010377),
    ('sim/claude-sonnet-4', ('translation', ('pycompss', 'parsl'), 'paraphrased', False, False)):
        ('e7f304b0068e238854751da56f18a32f3e9494d424aceaf5057aec571808870e', 78, 24.68315395675989),
    ('sim/claude-sonnet-4', ('translation', ('pycompss', 'parsl'), 'reordered', False, False)):
        ('27733df07464a6f886b8d76259bd15dfa4e9c90bc6e161b257d7bec6cddc7424', 87, 19.062612295702415),
    ('sim/gemini-2.5-pro', ('annotation', 'adios2', 'detailed', False, False)):
        ('a934c0d08ca0f3cda3bb74679b54c6ac9439791c5c54fbce264248c5305c9d4c', 69, 53.828091050949446),
    ('sim/gemini-2.5-pro', ('annotation', 'adios2', 'different-style', False, False)):
        ('484acfca9c2c0b9b3006eeae393dc98267fcdef05ad76195f91fde7d608c43fb', 75, 52.11098026277387),
    ('sim/gemini-2.5-pro', ('annotation', 'adios2', 'original', False, False)):
        ('f42377572661c0fcc0b9f93944925c3087d18254a9adcf02af50da9db961b0ad', 68, 51.979398540756385),
    ('sim/gemini-2.5-pro', ('annotation', 'adios2', 'paraphrased', False, False)):
        ('fe35835364cb9464e5cc86147d237eb7a9cb7c7d3ae15ce02e784b3e70250716', 60, 55.90575695062728),
    ('sim/gemini-2.5-pro', ('annotation', 'adios2', 'reordered', False, False)):
        ('d86d50857707b3655d2df37c04ddddd52d7e742e45f2f04622bd5e0ef466586f', 70, 53.03575705771668),
    ('sim/gemini-2.5-pro', ('annotation', 'henson', 'detailed', False, False)):
        ('d916224778cb3af3cbcf784cc38b6eb6a88a6f2938c903f18cb517a71eca9d1e', 74, 39.56907539615251),
    ('sim/gemini-2.5-pro', ('annotation', 'henson', 'different-style', False, False)):
        ('fe3fa2dac6a1403b382169049eab6c287ed6471cdeedbca4a2d7d70cd79aa939', 50, 47.808994761772745),
    ('sim/gemini-2.5-pro', ('annotation', 'henson', 'original', False, False)):
        ('87b646e564866a98cd267ce38f390bc4f620e8d29a7ed8b6c7ba6b1f9dac801e', 99, 42.69681597075974),
    ('sim/gemini-2.5-pro', ('annotation', 'henson', 'paraphrased', False, False)):
        ('5b77b300624eff0c99ff6a443659c8a44c7098df577b8967d9eb47e1f14087cd', 52, 48.45905514026077),
    ('sim/gemini-2.5-pro', ('annotation', 'henson', 'reordered', False, False)):
        ('f9ff50e9f15fb285ac2a0a14900d09ee77f51a9c99544af680e6e91d7f074d5c', 79, 39.18928934408167),
    ('sim/gemini-2.5-pro', ('annotation', 'parsl', 'detailed', False, False)):
        ('12c5d7856ab54414e0da615191108e305908c29f1848994510e6388058f1afe8', 46, 40.29986120037642),
    ('sim/gemini-2.5-pro', ('annotation', 'parsl', 'different-style', False, False)):
        ('61237f6fe4e9b1e1eb40100447dc15cccef2c0f8ec0538f95aa298a20b8c0466', 78, 16.125980366754504),
    ('sim/gemini-2.5-pro', ('annotation', 'parsl', 'original', False, False)):
        ('5b0c25a9febb043901a3c10fb8ebb2cb7661bfae4d56dfa30229eeaabdad0581', 75, 35.2369345501078),
    ('sim/gemini-2.5-pro', ('annotation', 'parsl', 'paraphrased', False, False)):
        ('110185a9303a3b47d06a07c3fa257fd7b11af532d4946268ee76734f40f1c048', 75, 25.74117196456373),
    ('sim/gemini-2.5-pro', ('annotation', 'parsl', 'reordered', False, False)):
        ('56f2c3497ee0a8c4b8cf3f1bcabdf704b3e59c43e15cfb584e30a93b5b32240a', 68, 41.88759950267614),
    ('sim/gemini-2.5-pro', ('annotation', 'pycompss', 'detailed', False, False)):
        ('f033abdccd48a345f3b6d51e49dfca5bee68b58fa45b7388a648d029be6bbc8a', 3, 96.52239610268224),
    ('sim/gemini-2.5-pro', ('annotation', 'pycompss', 'different-style', False, False)):
        ('cc5730196374760257f09e68aa0330898719457d1c971174bc06fadb8aacd038', 20, 76.11477998394398),
    ('sim/gemini-2.5-pro', ('annotation', 'pycompss', 'original', False, False)):
        ('5aec518981e0a5d4139b74800b1c666dcaab6dd6d18f76e93bf3987d52e1db86', 8, 89.73614824240686),
    ('sim/gemini-2.5-pro', ('annotation', 'pycompss', 'paraphrased', False, False)):
        ('e9b490a132428c2d2faa1042a2fa85c52bd06837429db97387e0992cf9d525c7', 10, 86.95027331316625),
    ('sim/gemini-2.5-pro', ('annotation', 'pycompss', 'reordered', False, False)):
        ('20e4d45e892c4a31a3a7174057632ac17421239d855c292a324725c8c4dbddbc', 12, 84.78937678448749),
    ('sim/gemini-2.5-pro', ('configuration', 'adios2', 'detailed', False, False)):
        ('6b45176a4f6fa5b43196210aac032b18357fbd475dda522abe17407bd19c8c62', 11, 74.37266386209895),
    ('sim/gemini-2.5-pro', ('configuration', 'adios2', 'different-style', False, False)):
        ('a4714091b3b01c6687c3182ad923d113e91ad23dd406d1035f589f1f5dce7fc2', 12, 67.96343498114918),
    ('sim/gemini-2.5-pro', ('configuration', 'adios2', 'original', False, False)):
        ('fdd8b658d7b73ed26a9f5e7473100902bd3036c5b99d508c1c564df514ccc665', 11, 74.37266386209895),
    ('sim/gemini-2.5-pro', ('configuration', 'adios2', 'original', True, False)):
        ('4f97ed41a1116ef8adc51b54a996a5e50ec440c0abcc3dba4b286ef634a2180b', 3, 89.1462163738369),
    ('sim/gemini-2.5-pro', ('configuration', 'adios2', 'paraphrased', False, False)):
        ('6024b603decf1b5476221ebc678b4d80f60851b5a83e47f1159e12e1d8a8e906', 11, 74.37266386209895),
    ('sim/gemini-2.5-pro', ('configuration', 'adios2', 'reordered', False, False)):
        ('36c42a8f34ef4976906fd8dc0fb46dcf3c98c8f3b13d3e5889f41ec564cdf4e9', 11, 74.24922333068612),
    ('sim/gemini-2.5-pro', ('configuration', 'henson', 'detailed', False, False)):
        ('e8c668e59fe0449a27b0188510fe567ff8f9df9a19b6834eb3f83243abf41c02', 7, 28.149915538577606),
    ('sim/gemini-2.5-pro', ('configuration', 'henson', 'different-style', False, False)):
        ('22d24892b7eb9375b126da4c3fa30d41ca3caf0ffd472c7151615fc9f62eea73', 7, 28.149915538577606),
    ('sim/gemini-2.5-pro', ('configuration', 'henson', 'original', False, False)):
        ('08bc6250d99acb9630e75bf7143898d6968406035d43b60c59d4a62a12396663', 7, 28.149915538577606),
    ('sim/gemini-2.5-pro', ('configuration', 'henson', 'original', True, False)):
        ('adb5bf143399f0359788f7d800b0667dd38a9c603456a0397139b9fe53383420', 2, 82.21293984712318),
    ('sim/gemini-2.5-pro', ('configuration', 'henson', 'paraphrased', False, False)):
        ('0600bee38863c1863ca1caf417875e4d3ba55cbb80ab3fd83fecf105534ed9e7', 13, 17.548433488411245),
    ('sim/gemini-2.5-pro', ('configuration', 'henson', 'reordered', False, False)):
        ('e263fda21ed05163a3ad951405449f5489a297e3fd57c6976bc96c80f64a2831', 7, 28.149915538577606),
    ('sim/gemini-2.5-pro', ('configuration', 'wilkins', 'detailed', False, False)):
        ('7505fbde7c8efd1ff0b59436a94094c5c39599fdc11c8f4194b9455deed8122c', 15, 44.920167444966786),
    ('sim/gemini-2.5-pro', ('configuration', 'wilkins', 'different-style', False, False)):
        ('6483ae2d8ff37297bbd6924ebdfbe11ac924d390c85bf2ad09a5e3be25d8ea84', 34, 20.530261851729485),
    ('sim/gemini-2.5-pro', ('configuration', 'wilkins', 'original', False, False)):
        ('6185fd4e1372e6c1db48c2a186913616d62a9cf79cd0282d11660061b2eee32a', 28, 30.546952739987375),
    ('sim/gemini-2.5-pro', ('configuration', 'wilkins', 'original', True, False)):
        ('b283afb83b886a4b8e5eff6c7d81af2aae3ce5c9b54878b4c6642d0929f940c9', 4, 85.86000896973049),
    ('sim/gemini-2.5-pro', ('configuration', 'wilkins', 'paraphrased', False, False)):
        ('d0fbd2997162b1fdee33df7360a3d68472e630f26c383d5753de5d12134a3b7e', 34, 24.24028974797926),
    ('sim/gemini-2.5-pro', ('configuration', 'wilkins', 'reordered', False, False)):
        ('01a706dbd71ce87eb8bbd5ee4dde06ea8dfb065672e3f98c36f997f4095cab81', 21, 36.83416345856359),
    ('sim/gemini-2.5-pro', ('translation', ('adios2', 'henson'), 'detailed', False, False)):
        ('4163b05a03e881fa65e657415378c57e21cc5e04e99fb0586741d115467dc91b', 193, 33.22176337074199),
    ('sim/gemini-2.5-pro', ('translation', ('adios2', 'henson'), 'different-style', False, False)):
        ('bc4adcb34758ceaf82427887fa215011d222de958654b9590c88a2b242dbba7f', 193, 32.67737899540658),
    ('sim/gemini-2.5-pro', ('translation', ('adios2', 'henson'), 'original', False, False)):
        ('b83a358fd86fd22dfab081fe51a055d2e2b317ebcac67d858c5ffa9e38574e6a', 190, 35.89593637052378),
    ('sim/gemini-2.5-pro', ('translation', ('adios2', 'henson'), 'paraphrased', False, False)):
        ('91c39c6c6e4e00a21064deef01ae32f9373f44822f7cc86f66ab0cd0d404302e', 192, 31.128977181668954),
    ('sim/gemini-2.5-pro', ('translation', ('adios2', 'henson'), 'reordered', False, False)):
        ('602bdf51a706e15e65d0932782fde408092c6a67a2fa31b880efd04e5cfc9376', 187, 34.6744857650483),
    ('sim/gemini-2.5-pro', ('translation', ('henson', 'adios2'), 'detailed', False, False)):
        ('a2a03aab5b7b25503bc71d11718ad32786380fe914a34f9b874e9e54fc5d31e2', 71, 48.21427880544485),
    ('sim/gemini-2.5-pro', ('translation', ('henson', 'adios2'), 'different-style', False, False)):
        ('e1dafec18d63eab484abf67f350baaf2bd5c9970306241dbd43a7104a9ff71e6', 77, 47.67994450175726),
    ('sim/gemini-2.5-pro', ('translation', ('henson', 'adios2'), 'original', False, False)):
        ('3b5ad5c5985973e87b302731b7bff09529d64d75bf97c6d085d9fca6bd672a4e', 63, 52.51335251368271),
    ('sim/gemini-2.5-pro', ('translation', ('henson', 'adios2'), 'paraphrased', False, False)):
        ('f5f77c6081d97a893755f29e1488ce97b5baa6a387521b5160322d038057f8b3', 68, 49.00697840920811),
    ('sim/gemini-2.5-pro', ('translation', ('henson', 'adios2'), 'reordered', False, False)):
        ('fd2d61a4640745cc5c0859f716a7a2d3cd6b1b0a5290d74ac81ef06119d5cb80', 81, 45.85777000991049),
    ('sim/gemini-2.5-pro', ('translation', ('parsl', 'pycompss'), 'detailed', False, False)):
        ('0c16dc4c2e1190aa0a79693bb7073bb793277c769fef5599d8a83034fe58b18c', 0, 100.0),
    ('sim/gemini-2.5-pro', ('translation', ('parsl', 'pycompss'), 'different-style', False, False)):
        ('8b2a262859495313c6eefb597d95e417ca4e3379517460db2e1de424a5cfe794', 9, 87.9714558162893),
    ('sim/gemini-2.5-pro', ('translation', ('parsl', 'pycompss'), 'original', False, False)):
        ('08cb489ee18239620500a0fd5c0df447dcba05f9c5791c6905021dcf863a5908', 18, 81.64711976219861),
    ('sim/gemini-2.5-pro', ('translation', ('parsl', 'pycompss'), 'paraphrased', False, False)):
        ('dc21990d5c7f26bf49b8d91f17006689db44cbd97a5ca9457562baf3dc319528', 8, 91.0230697280313),
    ('sim/gemini-2.5-pro', ('translation', ('parsl', 'pycompss'), 'reordered', False, False)):
        ('73e0d12c6b10246e4ff3ccda10e5872b100a78ac084dda772229f0dd60d52bb4', 19, 75.49267230574529),
    ('sim/gemini-2.5-pro', ('translation', ('pycompss', 'parsl'), 'detailed', False, False)):
        ('1f1eb474077770858ada6b3095876678934c45e02c3b982e2830eab1c570e6f8', 71, 34.46510169315744),
    ('sim/gemini-2.5-pro', ('translation', ('pycompss', 'parsl'), 'different-style', False, False)):
        ('8da7ddd7dbdba37c54600ddfa39161800a6cb02681f3e7c20f16d5e53dd8c240', 87, 19.062612295702415),
    ('sim/gemini-2.5-pro', ('translation', ('pycompss', 'parsl'), 'original', False, False)):
        ('ae87544d12cc234be0e13588cc0a171f8fb91e59caabdb50b2fb85615605459e', 59, 39.5161034088508),
    ('sim/gemini-2.5-pro', ('translation', ('pycompss', 'parsl'), 'paraphrased', False, False)):
        ('d436a2671250f00c268e26d83bed1d5a0367b0fe4cab2afb97bef27b878dd239', 51, 35.36660975593808),
    ('sim/gemini-2.5-pro', ('translation', ('pycompss', 'parsl'), 'reordered', False, False)):
        ('0e04a321570b578fa0e6e6ed9b5c751841021aa582a58112556e4eee46354cf6', 64, 35.51178656455093),
    ('sim/llama-3.3-70b', ('annotation', 'adios2', 'detailed', False, False)):
        ('8956bad5c8a9a11053d6a900be89dab1b4d6ab5ed5538c38ee793dd2a5196edb', 99, 38.781160427426094),
    ('sim/llama-3.3-70b', ('annotation', 'adios2', 'different-style', False, False)):
        ('16f7d323d0c87b900cd103b562f8cde1cdb6a21a452433886c16de586a7f93c7', 73, 50.725831798658675),
    ('sim/llama-3.3-70b', ('annotation', 'adios2', 'original', False, False)):
        ('7e8a6a28059aebe9b455e21e270d429d49c9f6461ee3f128bcc62d5875aba592', 72, 54.42444121532819),
    ('sim/llama-3.3-70b', ('annotation', 'adios2', 'paraphrased', False, False)):
        ('7d663d2c104190ef70bb3dc5e3ead409427beb77ff3e32e20abdcfdc72e079ae', 77, 49.95632764349974),
    ('sim/llama-3.3-70b', ('annotation', 'adios2', 'reordered', False, False)):
        ('3ce09654186d1a9001128884777b4b90373a79c99c7ed7464d7802cc702f2e00', 92, 48.19739228068842),
    ('sim/llama-3.3-70b', ('annotation', 'henson', 'detailed', False, False)):
        ('7469431b17fbcf5807935be4e71a74a1a8942299ebc8eee89f83d53a3729928a', 47, 45.724440964815194),
    ('sim/llama-3.3-70b', ('annotation', 'henson', 'different-style', False, False)):
        ('abce36062336c490f78816c08155d78794904bf86555051bd77693506346179a', 101, 17.387476946744957),
    ('sim/llama-3.3-70b', ('annotation', 'henson', 'original', False, False)):
        ('dfd4664b8a88e75556b4fb3c8f4a1ce1c2c6a7a34563634d293bdf75c5546936', 101, 15.921098549319696),
    ('sim/llama-3.3-70b', ('annotation', 'henson', 'paraphrased', False, False)):
        ('9056f4f411d678fec6f0427f95093350b3ba667cd3a853d59ebda54747c66d65', 101, 12.827219522767646),
    ('sim/llama-3.3-70b', ('annotation', 'henson', 'reordered', False, False)):
        ('11dcf0948aab2be1c0dcf143e47d8d0c33195d2ba0eca2698874b5a4bffa15ad', 102, 9.858593738373349),
    ('sim/llama-3.3-70b', ('annotation', 'parsl', 'detailed', False, False)):
        ('363f1878f67aadbffff6dec4da5cedb5800686392ab6035a4ede9bd4d8059109', 68, 35.30357425512799),
    ('sim/llama-3.3-70b', ('annotation', 'parsl', 'different-style', False, False)):
        ('1c50fdf5a0805166152b5b87dfc6ecf36cff7163a5fec349323301a1b161927e', 66, 33.28974125050212),
    ('sim/llama-3.3-70b', ('annotation', 'parsl', 'original', False, False)):
        ('6d2d014d888577aa3cb39ab8395da1c55d122926b800933f055904e430cf7282', 53, 41.184063019875055),
    ('sim/llama-3.3-70b', ('annotation', 'parsl', 'paraphrased', False, False)):
        ('4a7a7cee66d173b800a96046f0c539536d9a65a405adb86dafe640f529774d1b', 73, 42.07710550919827),
    ('sim/llama-3.3-70b', ('annotation', 'parsl', 'reordered', False, False)):
        ('48ca3ed225bdabb074541b6e36121643b337b0b54f08722ab6ad21357f1be30d', 60, 37.088959902626335),
    ('sim/llama-3.3-70b', ('annotation', 'pycompss', 'detailed', False, False)):
        ('2bd4e97733c396f40a06431daa1a174ffd2cb6c3b319c47330f9009a50e06998', 58, 39.36624467686469),
    ('sim/llama-3.3-70b', ('annotation', 'pycompss', 'different-style', False, False)):
        ('2c7ae79f4f0ebc75745bf2e1b347b03733efd814dd352da9b4769cb89905972e', 38, 47.61191720221104),
    ('sim/llama-3.3-70b', ('annotation', 'pycompss', 'original', False, False)):
        ('01d6de27b4d908f79bf6ee756ecd5e371930b1f2f0b32b78473ed6cdc515ce15', 79, 10.714866980392925),
    ('sim/llama-3.3-70b', ('annotation', 'pycompss', 'paraphrased', False, False)):
        ('e2bb29718332393684061bd15e1aaa49a20e2e0e2411ce2d8d59c848663134b5', 74, 17.065838915596597),
    ('sim/llama-3.3-70b', ('annotation', 'pycompss', 'reordered', False, False)):
        ('ffcc6e382f8f4164163418dbc9f99a5b950be1abeedc042d95dd187706932d0b', 38, 45.15590899893007),
    ('sim/llama-3.3-70b', ('configuration', 'adios2', 'detailed', False, False)):
        ('8098d762e1e6acdc65eb943cbee4f1d9beb2b6ee8aa30e3dc02f5239583f4fd9', 28, 26.574028112035567),
    ('sim/llama-3.3-70b', ('configuration', 'adios2', 'different-style', False, False)):
        ('1e23e1e62191d0be7c5d8ef65e770947258eeaf52f843136b2412b31ed188ff7', 33, 13.591314798744467),
    ('sim/llama-3.3-70b', ('configuration', 'adios2', 'original', False, False)):
        ('3743e222745835dac6d0f0251c8b66f8575b20e705563726addcb8e4312ca9cd', 23, 36.59245064378453),
    ('sim/llama-3.3-70b', ('configuration', 'adios2', 'original', True, False)):
        ('fdacc5150a36c4f32fea320e8a56e2f3fd7af098380020b0ef75da90d22c06bb', 3, 89.1462163738369),
    ('sim/llama-3.3-70b', ('configuration', 'adios2', 'paraphrased', False, False)):
        ('48d5b0882357c1b7d415c674f68326944c533ae7edb4f55bb45a069e27a90c60', 26, 31.87601581297588),
    ('sim/llama-3.3-70b', ('configuration', 'adios2', 'reordered', False, False)):
        ('675a4d5fc5642845b6edd8c620099b3346d56261cf5c83718beeb61fd7ea1a8d', 34, 9.24502604295762),
    ('sim/llama-3.3-70b', ('configuration', 'henson', 'detailed', False, False)):
        ('5a5bcc758cb097577896981ae12929842fc645bb7635ba305763e648c949bc28', 6, 36.36549364195607),
    ('sim/llama-3.3-70b', ('configuration', 'henson', 'different-style', False, False)):
        ('d0a724d8f6e1b4c4951b155592232e4420892d6a96ebf893321dec72827ff870', 8, 18.13696798975344),
    ('sim/llama-3.3-70b', ('configuration', 'henson', 'original', False, False)):
        ('0ef96252ab9d19d9d197f968a588f3a76c451f75c88c71b81f61ade772caa052', 7, 28.149915538577606),
    ('sim/llama-3.3-70b', ('configuration', 'henson', 'original', True, False)):
        ('55366d7b17a937d64f486bf569883289fd7be992db5dad26555d614139b1031c', 2, 78.45332138125904),
    ('sim/llama-3.3-70b', ('configuration', 'henson', 'paraphrased', False, False)):
        ('bf54a93c44a59b39b28ed8965e4420f310ae6c37d2f0495fee60f100aca78fa1', 7, 28.149915538577606),
    ('sim/llama-3.3-70b', ('configuration', 'henson', 'reordered', False, False)):
        ('78418def1ea901b70ba033c2c072e51848e3d01bc50fb5db9604443db0af6932', 9, 16.88588091442376),
    ('sim/llama-3.3-70b', ('configuration', 'wilkins', 'detailed', False, False)):
        ('95767934b7b99c0cd6ad305483f1069f0e5b7fabd2ada8648f8cfbb088276ac7', 12, 51.21929473867248),
    ('sim/llama-3.3-70b', ('configuration', 'wilkins', 'different-style', False, False)):
        ('e0a76983dddf2d2ab6a627e5e14e7281730a7e14f2c453592bb5c7a6fe15d510', 21, 38.806485076900834),
    ('sim/llama-3.3-70b', ('configuration', 'wilkins', 'original', False, False)):
        ('5f8d49153b2ae0093b6f3afb63e284c24a8792feafb52e4adaff52ed197e7cfa', 21, 39.793242826604335),
    ('sim/llama-3.3-70b', ('configuration', 'wilkins', 'original', True, False)):
        ('f194ee075577206107bca6a9d57e677110e19c6e4bccb230eadb4c5a1d5d13b8', 4, 84.28052219255365),
    ('sim/llama-3.3-70b', ('configuration', 'wilkins', 'paraphrased', False, False)):
        ('ac882e82c77c4b148822d54cfbe0b3c6545300f121b2e1e844f06718c2d2a0a8', 22, 36.65426912569187),
    ('sim/llama-3.3-70b', ('configuration', 'wilkins', 'reordered', False, False)):
        ('b25286e8c403a160c6030ee4681250190d01083b7953628dc6eb5db02989f3fb', 17, 39.79702227748419),
    ('sim/llama-3.3-70b', ('translation', ('adios2', 'henson'), 'detailed', False, False)):
        ('a343c1eb69f316ee035a8caa052ac49db290c8e10c569ebc2806a53b00132b90', 218, 31.570479975399305),
    ('sim/llama-3.3-70b', ('translation', ('adios2', 'henson'), 'different-style', False, False)):
        ('480a9c792ad3c8b5907e83ec5cf8a90498269b49c353cfbb998660ea75e967c3', 226, 18.80840342672526),
    ('sim/llama-3.3-70b', ('translation', ('adios2', 'henson'), 'original', False, False)):
        ('4273b81b355c5a9c06ffb9e30c9611ed79fb172e3dea1fe9cc5f9d8ccdcff4e4', 227, 18.670620853635484),
    ('sim/llama-3.3-70b', ('translation', ('adios2', 'henson'), 'paraphrased', False, False)):
        ('cf17f758747b4e17a32cff9ae4f2ad78be06a3a7703fe2a95679a5dc4b918725', 223, 22.078447375643336),
    ('sim/llama-3.3-70b', ('translation', ('adios2', 'henson'), 'reordered', False, False)):
        ('2f9eb49539f2fbb12dd0af7503f3246fb3e35d7efb18f609bdfffd8954137ffc', 226, 18.32791292381067),
    ('sim/llama-3.3-70b', ('translation', ('henson', 'adios2'), 'detailed', False, False)):
        ('d6cb45902633c0ba1ab8fe79066426c5657226f43441327910ed2eb33e6ad071', 121, 41.1429705453265),
    ('sim/llama-3.3-70b', ('translation', ('henson', 'adios2'), 'different-style', False, False)):
        ('7fcf1d96d9f8470bf1e94550bb1cd9856f3613842881a17e8ac160ef02489a01', 73, 46.00673342776316),
    ('sim/llama-3.3-70b', ('translation', ('henson', 'adios2'), 'original', False, False)):
        ('8af1a0609c0da2b0a2ef50b7c45249daa033e22e0f0ff321414f3e9cc096605f', 78, 42.173382757466705),
    ('sim/llama-3.3-70b', ('translation', ('henson', 'adios2'), 'paraphrased', False, False)):
        ('6ba45fe8cf756366d79b5cfad627eecf6b71cd6d52b185a16d63f9db67e49363', 67, 43.711603647746266),
    ('sim/llama-3.3-70b', ('translation', ('henson', 'adios2'), 'reordered', False, False)):
        ('eb9d6e22e716e0cc79c83922512e6d74f5a80d0f697b1d9752f0ab82bfcdd01e', 113, 39.336880114991374),
    ('sim/llama-3.3-70b', ('translation', ('parsl', 'pycompss'), 'detailed', False, False)):
        ('4a5bae32507332977d5cd7769588da3401c6246f4acd82d697c4a4e378799177', 24, 66.42414108624641),
    ('sim/llama-3.3-70b', ('translation', ('parsl', 'pycompss'), 'different-style', False, False)):
        ('b5441757c56524ef577838e43b9bac4cfde36626b55eb305ebdf66a5e311ac83', 74, 38.31408720970344),
    ('sim/llama-3.3-70b', ('translation', ('parsl', 'pycompss'), 'original', False, False)):
        ('5f1ecf699540a878addbecb323df69af84f717aa12c877ea222a3c23d2325e03', 74, 29.508773812531096),
    ('sim/llama-3.3-70b', ('translation', ('parsl', 'pycompss'), 'paraphrased', False, False)):
        ('6d83d68b5805ede75c036307b7acf604465825aafb9c0311e26de238b8dc325b', 58, 43.15375565104262),
    ('sim/llama-3.3-70b', ('translation', ('parsl', 'pycompss'), 'reordered', False, False)):
        ('4005477838b5e1cb9502dcfeeb341aa3a3f44a9fd9bddc7b07c1dfd94c6b2d71', 35, 55.41380413599134),
    ('sim/llama-3.3-70b', ('translation', ('pycompss', 'parsl'), 'detailed', False, False)):
        ('295a6bffc243fea559af7080c0b435e6016f94b803990b4528d81500534a991e', 78, 23.15157432435503),
    ('sim/llama-3.3-70b', ('translation', ('pycompss', 'parsl'), 'different-style', False, False)):
        ('28558de547f8f54ee12932ee6f2dbea5c5dbbb8c9479c054c10c8cea38325cd7', 78, 31.09489614750141),
    ('sim/llama-3.3-70b', ('translation', ('pycompss', 'parsl'), 'original', False, False)):
        ('d272ec35ce61719e43e95677cf3eb4f97d964f8d228748fe29e1d36e24727eb9', 87, 18.976258556628277),
    ('sim/llama-3.3-70b', ('translation', ('pycompss', 'parsl'), 'paraphrased', False, False)):
        ('4c949ea1246c3691a96498a1096c0cd2fd6a7b1ab3999a81cbff85452f056ff3', 78, 32.939655831855035),
    ('sim/llama-3.3-70b', ('translation', ('pycompss', 'parsl'), 'reordered', False, False)):
        ('e9be1812f011b19da252d3852ff76494f63d61d19eac5883da75465cedd1c46f', 78, 26.03011008733171),
    ('sim/o3', ('annotation', 'adios2', 'detailed', False, False)):
        ('bca72cbda8afde084481092c352064d085d15e76373dd16e7774ddf24dc6d07d', 62, 54.86271120265015),
    ('sim/o3', ('annotation', 'adios2', 'different-style', False, False)):
        ('2c0c76b1204f9b855b0a1597f7c36985558c14faf21c47ed437e7ab23d86c524', 55, 61.70496185269247),
    ('sim/o3', ('annotation', 'adios2', 'original', False, False)):
        ('1799e0e9912a0874b790e4b899b888939b6adc9454342ca47eec9f849d1522cb', 56, 59.50787775044624),
    ('sim/o3', ('annotation', 'adios2', 'paraphrased', False, False)):
        ('fc98bec884a51972613606aaf310fcd61d517d4f7af900607b5e1ce1d0eedd4d', 72, 51.09604668781637),
    ('sim/o3', ('annotation', 'adios2', 'reordered', False, False)):
        ('d3ac1f8e5c1b183c81d9282dd26a9a2558ff77a18a0070fe3595c089eedd85f8', 59, 57.331900770406726),
    ('sim/o3', ('annotation', 'henson', 'detailed', False, False)):
        ('ae7c0a2e68c84dbfee8821097ae0d102d76273ee032bd30792443f67c5897742', 76, 42.361818607561766),
    ('sim/o3', ('annotation', 'henson', 'different-style', False, False)):
        ('8a7cb7c3841269a0f1fdcf8e9708dfb12c404795e63ceee28bfbe2034151ea9d', 49, 42.54291536491649),
    ('sim/o3', ('annotation', 'henson', 'original', False, False)):
        ('5095589af03559c1287fa0001ef3850105d71d433c6e4fc9782266a8d94214cd', 59, 38.22651778162082),
    ('sim/o3', ('annotation', 'henson', 'paraphrased', False, False)):
        ('2782007514a8b8792e6fc342c83c4d90212d2899c99fbbc10d33d351656e8ace', 96, 37.128735519366934),
    ('sim/o3', ('annotation', 'henson', 'reordered', False, False)):
        ('f5f4c3355d7d0a231edf734b84282849fa5696b5d92a33c629e8954a0900a459', 96, 38.79586076158822),
    ('sim/o3', ('annotation', 'parsl', 'detailed', False, False)):
        ('30f4732a11699e79b3b13e869c5544056fe082a56a98a253ba402777da4197b4', 40, 49.44139251910866),
    ('sim/o3', ('annotation', 'parsl', 'different-style', False, False)):
        ('536a360b9d192231dbe1b37d45a41bc8a74e26e6924a84e18578cfd750afd7ea', 77, 20.512653222381786),
    ('sim/o3', ('annotation', 'parsl', 'original', False, False)):
        ('404be355f8bba6ad1ddff62197ce83aea8e368d7346d098acc3b8052a6c7e7b8', 76, 39.6099266528037),
    ('sim/o3', ('annotation', 'parsl', 'paraphrased', False, False)):
        ('354dfd6783369ef4846aab72d0028f8369a95fff58dfdc2dd957c84caa4e7f9a', 33, 51.431188347987074),
    ('sim/o3', ('annotation', 'parsl', 'reordered', False, False)):
        ('457567a91ddc78f342ab0048c03f585f9959d13e73d52e81335a8d089cc71880', 65, 34.59508731429565),
    ('sim/o3', ('annotation', 'pycompss', 'detailed', False, False)):
        ('8e892d67fc57d49e654a434e61c14ede97bfa882287d5d2ba6ad794ccd5f453f', 10, 87.31808868241603),
    ('sim/o3', ('annotation', 'pycompss', 'different-style', False, False)):
        ('ab88bc09e3b50ef116bad201998d4dfad2b6fab40431d6f54bda0bfa73fbcca7', 33, 54.59830725457302),
    ('sim/o3', ('annotation', 'pycompss', 'original', False, False)):
        ('752128a07641db4731eaf6879c028bbb6565e89bf7c9ec5b67e88c56ebea5a7d', 22, 72.16837863751265),
    ('sim/o3', ('annotation', 'pycompss', 'paraphrased', False, False)):
        ('6c47d92581f773581f29c54b982cc4c22b78318ac94b70fc8d43c0afb96dee24', 28, 64.9985176689862),
    ('sim/o3', ('annotation', 'pycompss', 'reordered', False, False)):
        ('c36653cad398f0491eb9215b346c8994d414082797a1ad5925189bacc5e2009c', 38, 52.21977422780123),
    ('sim/o3', ('configuration', 'adios2', 'detailed', False, False)):
        ('b713a1862c1d50539f1a79b61d868204d23a6eaa8b6ac930200160c48d6e8958', 14, 66.19275937208312),
    ('sim/o3', ('configuration', 'adios2', 'different-style', False, False)):
        ('72d3f15ff80dbca163ce40d0734b3cbbf05ed36277281ce650d383932d07476a', 18, 54.38967292577299),
    ('sim/o3', ('configuration', 'adios2', 'original', False, False)):
        ('d579750f2ee988638bdf1a3d237beb56512c552a3152a8643d9c189603308ce8', 16, 58.620293885056164),
    ('sim/o3', ('configuration', 'adios2', 'original', True, False)):
        ('d029c7d6e5527c5b4b0809d256c3eb8f7b6b5184e314a1fe8da5a16695a11fc0', 2, 92.50292698574586),
    ('sim/o3', ('configuration', 'adios2', 'paraphrased', False, False)):
        ('49eafc9508e566070e3f8f0659e3ab4e60d9aba1fc105255e70aeba05b1374a9', 19, 58.67044984205166),
    ('sim/o3', ('configuration', 'adios2', 'reordered', False, False)):
        ('c574c009945f0279893c7b7f9ec56238ba6207a45292995821edb7ec7a4dd235', 20, 52.16480497668453),
    ('sim/o3', ('configuration', 'henson', 'detailed', False, False)):
        ('75c52f29b8f0b1746fd35ea5230ed36575790c80dee5c225e6329bc4035bc1d5', 7, 28.149915538577606),
    ('sim/o3', ('configuration', 'henson', 'different-style', False, False)):
        ('30b0874245dfe3b634cce0639bbea632fc6441f976b6a8eda0d140c01f942950', 8, 18.13696798975344),
    ('sim/o3', ('configuration', 'henson', 'original', False, False)):
        ('b9f428f73f590888b7bbc74e55e6bfa56cfd66d2ae655459a66b8be4ffab79d6', 8, 18.13696798975344),
    ('sim/o3', ('configuration', 'henson', 'original', True, False)):
        ('2c21797720efc05e95333aaf408f04ecece783749507ef91dcbcdf75591d8f67', 2, 82.21293984712318),
    ('sim/o3', ('configuration', 'henson', 'paraphrased', False, False)):
        ('9dc464c7ba84ff892bd66d2168198cc66b4e6cea24af43624234a8a2bd193081', 7, 28.149915538577606),
    ('sim/o3', ('configuration', 'henson', 'reordered', False, False)):
        ('13fc50d45c6f4bddf96a0c6eb278d648a6a0c1df4bdf9275f6691f665a56ca1a', 8, 18.13696798975344),
    ('sim/o3', ('configuration', 'wilkins', 'detailed', False, False)):
        ('75285ce5b6fd5fc24bc7bf3b05f6200564498f6b17d1b387c1e2541bdf7dd4c1', 19, 41.70732989625837),
    ('sim/o3', ('configuration', 'wilkins', 'different-style', False, False)):
        ('b767c8817686c810aa7ab1e0520402ec87bde756ccd9959f5ad9f360be895ca7', 26, 31.066994455660776),
    ('sim/o3', ('configuration', 'wilkins', 'original', False, False)):
        ('654aebd4e990f5a4438aa59996712870ed269016c4029b7f36816ea80c18e48c', 26, 29.772670895089632),
    ('sim/o3', ('configuration', 'wilkins', 'original', True, False)):
        ('6f064e0c5510ca39ca070fb22dcce1d4526a9de734abdd00191f758c18755285', 3, 87.9144502803782),
    ('sim/o3', ('configuration', 'wilkins', 'paraphrased', False, False)):
        ('850daf7c2f36fbdb4b4fbaa32f8052450b52fa86d8cfc86d79d0be1b86e9d59e', 29, 28.678230436401893),
    ('sim/o3', ('configuration', 'wilkins', 'reordered', False, False)):
        ('1d86095f972821c629a97621c16d9cb7f13b54f5438ab82910c71a695836ebab', 36, 28.28401294951208),
    ('sim/o3', ('translation', ('adios2', 'henson'), 'detailed', False, False)):
        ('b9d281cd50251f5b01d920e865376e190d708c9a07f4a8f92aa1d798098a6b4d', 195, 35.3385870521487),
    ('sim/o3', ('translation', ('adios2', 'henson'), 'different-style', False, False)):
        ('68d2cd7656c7b8bbda03f61efe6f483d0d68992639303f1f6c746c9c55ce2434', 224, 25.48633387150627),
    ('sim/o3', ('translation', ('adios2', 'henson'), 'original', False, False)):
        ('375e09a54d2707b68d9a363e6e5c95bae6a2a9e3856ffe12e3a66052cb4e2b70', 223, 24.726125833119525),
    ('sim/o3', ('translation', ('adios2', 'henson'), 'paraphrased', False, False)):
        ('4fa14815b14e720f9eafb13ee68af773a43b217b1d18ae651874f650328ba7d4', 221, 26.213381582817988),
    ('sim/o3', ('translation', ('adios2', 'henson'), 'reordered', False, False)):
        ('d4d00eacd711d4cdec0e5678754abd003b99fcc6519df251bfec02eab6d569c4', 217, 25.071806856946914),
    ('sim/o3', ('translation', ('henson', 'adios2'), 'detailed', False, False)):
        ('2c5c7a5a1836e3a0a9d49832d896db2beeb5cdaa57c760c446904219966a66f7', 70, 53.55038848373736),
    ('sim/o3', ('translation', ('henson', 'adios2'), 'different-style', False, False)):
        ('ade4d10690c12ed90d9dcd492462a8ea307602f2f71f49f23d3a2586db44506e', 63, 56.47113394028023),
    ('sim/o3', ('translation', ('henson', 'adios2'), 'original', False, False)):
        ('0e61ed1bdbd4f207be6b8789dee1e3d01d3bd2b26cef42e32ea0195fe6f5ce6e', 66, 56.587643235889864),
    ('sim/o3', ('translation', ('henson', 'adios2'), 'paraphrased', False, False)):
        ('34ab85cc66e69f4198c3c88910cb834455a61be11c0105cd733f5fb806119965', 83, 52.691970808957606),
    ('sim/o3', ('translation', ('henson', 'adios2'), 'reordered', False, False)):
        ('14fdd0bc65014e6f56f3102d96cbb2e174974380d53ff1eb807e3a42446eb234', 57, 57.97090514405123),
    ('sim/o3', ('translation', ('parsl', 'pycompss'), 'detailed', False, False)):
        ('91d27b9aee68e80f77f722e6bc28cc8d24b1d8387682eb1c0a520830f5002fab', 30, 61.65603378954077),
    ('sim/o3', ('translation', ('parsl', 'pycompss'), 'different-style', False, False)):
        ('68b49c68ad8a3122b3943307e386a68120b73a10c5703af90660c173aaf0ecde', 31, 50.61355744919941),
    ('sim/o3', ('translation', ('parsl', 'pycompss'), 'original', False, False)):
        ('85a9cb97eccbd801149373702a4c60aa3b5d7a8ea747c2427fd0b9b7c2bcddd5', 36, 48.413781968798226),
    ('sim/o3', ('translation', ('parsl', 'pycompss'), 'paraphrased', False, False)):
        ('ac4713829dbd1e1ebc9f94258f2bda49f1088ad1272cbdfe299b9e34ee621929', 27, 70.04924461617055),
    ('sim/o3', ('translation', ('parsl', 'pycompss'), 'reordered', False, False)):
        ('550f107903b76e9e0f0ec809bdd67251560b3d00a639d7b971da994260496cd3', 34, 49.56941778490156),
    ('sim/o3', ('translation', ('pycompss', 'parsl'), 'detailed', False, False)):
        ('8cb84d57556747869b3f84be31236ad83f9cbc058739fe2474350d674d5d5400', 78, 24.608630539883084),
    ('sim/o3', ('translation', ('pycompss', 'parsl'), 'different-style', False, False)):
        ('507cb557e69e45492e943482a5285807834982c474c11ce7f011f32382c6653f', 90, 16.625425683103586),
    ('sim/o3', ('translation', ('pycompss', 'parsl'), 'original', False, False)):
        ('9b56a5b3bda40ea92d525de1a8b3a426af481f00c36d76f5c264d9ae8d627db9', 87, 19.015842222899085),
    ('sim/o3', ('translation', ('pycompss', 'parsl'), 'paraphrased', False, False)):
        ('248deb1df48177925c19bd5d483914af7fd3623c6ac8f03d6523dfb46b1ab1ad', 87, 19.271908738747115),
    ('sim/o3', ('translation', ('pycompss', 'parsl'), 'reordered', False, False)):
        ('c6d57057334c7bc2961619be607a579cbbcbd9930d72589293a993a1af96942c', 87, 18.976258556628277),
}
