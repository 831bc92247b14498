package cli

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// viewDigests pins the seed-1 stdout of every CLI view, one case per id
// and format, so an exhibit that later gains a view leaves these rows
// alone. A deliberate output change must re-record the digests it moves.
var viewDigests = []struct {
	args string
	want string
}{
	{"trace T2", "0411916bd91d52ff19dd0ccfad4c326d6bb68b72922ab9761e931ae6ad0ed66f"},
	{"trace T2 -format text", "221d68dd40ce1e39850cad477e51fbbed5fd7d2c007aab38034859aea990509d"},
	{"trace T4", "f028d572800336b6dc36da5de5906d08fc5f143ad61e7b1f706ba024e56d70c1"},
	{"trace T4 -format text", "e391aa2812cce7851461fca73ad9d0a4d9d4d794205941b5402bfc264b87e919"},
	{"trace T5", "a5d849daf7137eb75f11cb3ef910920a0b87956e6d6544446c357503e0f7bf46"},
	{"trace T5 -format text", "e49bd100a1856448888391ae91b81ec316681a573a254b4b9cd445a70c770962"},
	{"trace T6", "f109d4126298942f314bd2dc5fbbc4fdd00d6a4994fa7f7eaa17a70796822134"},
	{"trace T6 -format text", "9e0c923849447af1450aa3bbde735e95dc93deadcf7c2717e9349c8b04a7f283"},
	{"trace T7", "f109d4126298942f314bd2dc5fbbc4fdd00d6a4994fa7f7eaa17a70796822134"},
	{"trace T7 -format text", "18a6c21b64bb94c99ba34ed7bce0ffe0e6591bae71be83220554f53afcfe4f71"},
	{"trace F1", "c6ad7f482938872a432c8454cf42760e3208a37a2d8a4e621c0821c2d3d0f019"},
	{"trace F1 -format text", "1cad6b41c94c7027eab44cc2958c8eddf8e0d0d69e2c7f9483295bbd0e1477e0"},
	{"trace F2", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace F2 -format text", "4f7788063b2bfd8cc1be15e4949e7d5c6ea70f8bebec949ac428a120f1248380"},
	{"trace F3", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace F3 -format text", "0bf6b6546792e6b64e2689ab97f453ecb11aff19b73d0c8d04e9c8efb0f4aeb3"},
	{"trace F4", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace F4 -format text", "5423bb4b30096dec7d802ca9cda079eb1b194224d164647692f4f230324b2b79"},
	{"trace F5", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace F5 -format text", "f420eafaa3f130a57896275c973bf0b4ce3cfa89ae8b21209876944a3ad77be1"},
	{"trace F6", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace F6 -format text", "0e9c5d37960bc88e6091f5648da9f3f77c8df3aac5910d2157674e81d845a806"},
	{"trace F7", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace F7 -format text", "bedfc0125d635e3c04b92cf6b70f897c94c15b3fae05318a5eafd8dd2d8a1b8f"},
	{"trace F8", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace F8 -format text", "b632f8adabb17513582b3e98c237591f0f528bbf7641bdca13d1048e514469f3"},
	{"trace F12", "a47c119499ce81bcffe54d73a9b93144af2aa7b966d4fa9b09b7ef0f48b4582c"},
	{"trace F12 -format text", "3bfa1e764c07c3e292e5999c6bb97cfb1e11ee7b078609ad73e8fa2a6897d197"},
	{"trace F13", "f109d4126298942f314bd2dc5fbbc4fdd00d6a4994fa7f7eaa17a70796822134"},
	{"trace F13 -format text", "40d03071bd3fd9984edd9532368e25cefb70d5982293160bac05736d49710144"},
	{"trace S1", "2e98d2949e2770ee5905fa7ef142d6f75aa55f0065cbc5d6d1055023d6e9c829"},
	{"trace S1 -format text", "610cf87b6f407c181bf2e7b686c18718f05e79c7b644faa47e4e56542f9ccf2f"},
	{"trace S2", "e0004d2f3b654d2872bf9cf67abe0f835f70d3030cd816f4247c63351fe8a664"},
	{"trace S2 -format text", "dd9fe6f05c00eac253e96f43719b282f1526496723097a9f5a03869bfc2e456e"},
	{"metrics T2", "c43f5e822d52a0a89e4a24acf7ac8e542dc0e893263c4511c9ef39998281abf5"},
	{"metrics T4", "605f502915712cc481ea11e7041701cdc954d8c28403fd0e83efb5b1bf285a7b"},
	{"metrics T5", "41b2c3627ea2085eac08f7f01bceb9e985d9b5d9529f380ae9c88182e32f9268"},
	{"metrics T6", "6dd5286b9311b20ee23f7b22112eccbf54fe3faacc398a71bfeb5323577f13f0"},
	{"metrics T7", "03d6d532f903ef8dfde4e34e6185f2a72a9bf0965afc4c6bce28942bb13030cb"},
	{"metrics F1", "67c737eb33a6d3879c952885985fdc4eaf5c44b51a1dd6824e7491f30a9c3627"},
	{"metrics F2", "194749f2f4ae32f2647067939d442bb7aa74c721d4b0251cf312e5ef48756e98"},
	{"metrics F3", "a2fa7eabbccafa0c32653b463675d9b70269a2263d64be15ade041342e083ca4"},
	{"metrics F4", "1332d1d396fac940a6932317c776d12aa3704b444a51e1825e81b44d6373e838"},
	{"metrics F5", "ad0c469ade7a32f8217b762f1e9b20eded5eb973567f540ccd8a64b4e610a60a"},
	{"metrics F6", "c6217fc5b2b77e9d7ccd0e39d00849bb5ec723454f93edd828b0966007ccf828"},
	{"metrics F7", "6264cf0cf5ae7a8ef7538eacd954eacc32a587e3078dc6df2aa7ba4b3d4a259e"},
	{"metrics F8", "e18b8a78b6be638d3de882888114d632cf24fc4f7ee8fa14467197761f45cca6"},
	{"metrics F12", "4e616e600a0b375ce7f0a8d3d65a3ddef893c133bf1055b48574be76720b153c"},
	{"metrics F13", "4f590ff8432ef2083f146a8db640f9f8ec93898931779fe1f3269438c66e6f94"},
	{"metrics S1", "68dbfb515d936802257dc7a811828e078a28c9dfc0c5cae3d8ec4c510ac692db"},
	{"metrics S2", "aa1bf5641b21c8cfff81e6e1c0b2fc00a57c3324a93a8fce0b29baab109f9906"},
	{"profile T2", "a76204aab5e9ed38e788422dbe0d31a507d648500608ac241d169a8a16efa2ad"},
	{"profile T2 -format folded", "71e4fcafdc4d68c8a9f9d729fc620f619d3c711f5d8d7c5dc1f670d4c379ae1a"},
	{"profile T4", "630f977ea25c1e740d595438ebd691fc3de71662fdddadad96e5f4063adc8988"},
	{"profile T4 -format folded", "ab813665a9f82891ce6c4b5b29bf716ccd8048d20b9c795e57c9623ac4690080"},
	{"profile T5", "d6570f2f8fb7f2c3149bed061162e49cefcd95cec1d06d5452669f8eb289bf86"},
	{"profile T5 -format folded", "96023420c944ad53891dacfaf84024a6a8c4c5277a53ed38bcb70fb7307ca13a"},
	{"profile T6", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile T6 -format folded", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile T7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile T7 -format folded", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F1", "f143513425a6ac9e63f000d7f4954482cb52de50954f9e80e1ed9818092fc867"},
	{"profile F1 -format folded", "155377375b7c6121c3b28e19900da391b7c2ff4920192fe6a9bc28c6c5e9d323"},
	{"profile F2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F2 -format folded", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F3 -format folded", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F4 -format folded", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F5 -format folded", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F6", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F6 -format folded", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F7 -format folded", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F8", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F8 -format folded", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F12", "cf888d681f52110423d7bf4b4e3ecd9f41516ace7bf1dc4d8e3219bb4515ffde"},
	{"profile F12 -format folded", "52edf9cf3251ec5f4967d08f34527867f429a5051bd125c65b7c7f5eb0f731c8"},
	{"profile F13", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile F13 -format folded", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile S1", "43cbdc87b232d62442176969741235f0d232289a658dd8584d5c0d669afecef3"},
	{"profile S1 -format folded", "a99367c9a71bf24e76799f8b556d8f6c09ed6b0fd08c36cc11cfcd7ff330feff"},
	{"profile S2", "88f73e3136dc01ee0056457ef04ff395290d0c8306af781b08b9956ba521c0ad"},
	{"profile S2 -format folded", "ce41a3966996fbecb9b53d5fa4901aacd1ee28fb143bed53bf766f38ff1243ba"},
	{"timeseries F1", "c5c62f54467704a1dce9d4ee2b646c899d8329709aa65011aa40161a2fbb23ff"},
	{"timeseries F1 -format json", "d21542c8d3a70dbbefab58a9d573638419f6ecb54ca237e2eea412fcfe5cbed2"},
	{"timeseries F12", "739c269b9ba41dc827392e105493c7300e5eff63ed83199a58a49f2da0fc81d5"},
	{"timeseries F12 -format json", "d1c8e24e34e0132378923244777b6ea219fc3f5142e57a4e1521d861a77af9a6"},
	{"timeseries S1", "1a2cbdf331dc848d7c9b7f23d3e0d9d46f8d668139e10e4b132849396b8263d4"},
	{"timeseries S1 -format json", "b6b5f7ba9ccab9b360c937227662e696125f3300dfce2fcc83dd3281e1419243"},
	{"timeseries S2", "a0b6fc381b88426221b49857635220e3a4a6c06689aaf1060826395338a3cd17"},
	{"timeseries S2 -format json", "f7b20867e6b9383d808a98ad8ca5a7cbfb9849a41dd1334da995ea40710b8642"},
	{"audit S1", "2cd2da9d041c6b23fe0716165dbd25f0d388b18e99b798c3a3aab66a23577342"},
	{"audit S1 -format json", "541398c416fd519cb2df50ac94bee05b9109d46ddfb7af4120c589f6c5310427"},
	{"audit S2", "71e56cea1b7f00c2448b80a7bd06b7b0720b83b8df6bd035626d1a887571da30"},
	{"audit S2 -format json", "757a84f1cae984d43f633b0e4222e96dcac2733fd35c8d21d765e171fe1f8a19"},
	{"audit L1", "f841d8553ee184a7d50b6c4e81fdb3ba17d6c861e3ea0f4b66444c9dfa8a2267"},
	{"audit L1 -format json", "47e13ccde7d5bb6059feeb584e467799741cb90cff6673363461adc6dca92848"},
	{"faults all -plan examples/lossy-nfs.json", "e2cf341ce0eae406601114dac045e7ce46fbb730ecf71bf9aca664e016f4a017"},
}

// serveDigests pins every 200 body `serve` returns at seed 1 with the
// default flags, one case per endpoint and id.
var serveDigests = []struct {
	path string
	want string
}{
	{"metrics/T2", "15a18999eafb2e0ffc05124b2fa4214b37d3a0cb75bc1b0187b520afbba30f47"},
	{"metrics/T4", "dd3c122168dcff41ed9f52e1c707d02877c85ec209ab053321015ccc994cba57"},
	{"metrics/T5", "caa86beafe9344dca9e8e16a4921a6d2e9ee8fe7244d3a1cf8f2c1a0d5e270ff"},
	{"metrics/T6", "075527cadb158dde16356529933e66eea0f115379dd282c1533a87830081a932"},
	{"metrics/T7", "1767de361c0683f7d1862e85af3667b32007d7fe5d2b34acb336fb11d965f731"},
	{"metrics/F1", "53dc7eedda5d6739b1f7bcc8a571f35ecf8a0872097e1ac2ce706a912c0565e3"},
	{"metrics/F2", "5538c4aa4ea5557b520b58769841aa6758718908eb0ac7b4802b69e864dc0298"},
	{"metrics/F3", "2facff42743eeb1b370b721d7de1229581ffe4e337e1a3199be7e4474c01fab2"},
	{"metrics/F4", "1bc543489a4466f4663e9687759047ae0117a302c79069e87582e5cc42c6c6a3"},
	{"metrics/F5", "d3a52a4e8c5a480148873a1f93013d8dc841e1cd5b7394eb363283946dfacc12"},
	{"metrics/F6", "2f82c93c5c60ba1e3361c9352f707c215b8e4f93239efbc2db390d2ff71174a2"},
	{"metrics/F7", "3c4c94500fbec12d8b9385c7ae5f3f59f38517361fa11f34e3420f3baed9dbf5"},
	{"metrics/F8", "75b5af7e35287cdfb8554aaa9c3776c5406db668eb1cccd912cb186026b30419"},
	{"metrics/F12", "96ca60501e4f1ba24b0a222c735f66a393cfdd068d63b73d6540ae9251ad7c5d"},
	{"metrics/F13", "194feb7d7e85a4b6ac2751cc4368e57adce7dc05771838e7691f927824dda1e9"},
	{"metrics/S1", "773e14244f104b2e5cb41effe873a7dac2a928b6de69b5f7bb1e05c8a550ec65"},
	{"metrics/S2", "04828444720844cc85636b896f153666af1b874a09cde4687c4c1284ca7b0db8"},
	{"trace/T2", "0411916bd91d52ff19dd0ccfad4c326d6bb68b72922ab9761e931ae6ad0ed66f"},
	{"trace/T4", "f028d572800336b6dc36da5de5906d08fc5f143ad61e7b1f706ba024e56d70c1"},
	{"trace/T5", "a5d849daf7137eb75f11cb3ef910920a0b87956e6d6544446c357503e0f7bf46"},
	{"trace/T6", "f109d4126298942f314bd2dc5fbbc4fdd00d6a4994fa7f7eaa17a70796822134"},
	{"trace/T7", "f109d4126298942f314bd2dc5fbbc4fdd00d6a4994fa7f7eaa17a70796822134"},
	{"trace/F1", "c6ad7f482938872a432c8454cf42760e3208a37a2d8a4e621c0821c2d3d0f019"},
	{"trace/F2", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace/F3", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace/F4", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace/F5", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace/F6", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace/F7", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace/F8", "1561c85b0efe559d83e0efeebfbf408f62ac4be17dd890585d5ea9157d911f7a"},
	{"trace/F12", "a47c119499ce81bcffe54d73a9b93144af2aa7b966d4fa9b09b7ef0f48b4582c"},
	{"trace/F13", "f109d4126298942f314bd2dc5fbbc4fdd00d6a4994fa7f7eaa17a70796822134"},
	{"trace/S1", "2e98d2949e2770ee5905fa7ef142d6f75aa55f0065cbc5d6d1055023d6e9c829"},
	{"trace/S2", "e0004d2f3b654d2872bf9cf67abe0f835f70d3030cd816f4247c63351fe8a664"},
	{"profile/T2", "71e4fcafdc4d68c8a9f9d729fc620f619d3c711f5d8d7c5dc1f670d4c379ae1a"},
	{"profile/T2?format=pprof", "74abab60703ba51247e63152164dce023c3e60227da0e0a16adef5fd5de9e53c"},
	{"profile/T4", "ab813665a9f82891ce6c4b5b29bf716ccd8048d20b9c795e57c9623ac4690080"},
	{"profile/T4?format=pprof", "5ba806b6322660e32d5811147e064e3656038aa944af77bb59a565bab092744d"},
	{"profile/T5", "96023420c944ad53891dacfaf84024a6a8c4c5277a53ed38bcb70fb7307ca13a"},
	{"profile/T5?format=pprof", "4e468c022931dd0489cab6beae0e56f3614057f76b9c957024bbc908f12d3c29"},
	{"profile/T6", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile/T6?format=pprof", "35bc046187da0d82a66ac1fa96340e437f906dac7e4662ff99e5d70e5510aa97"},
	{"profile/T7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile/T7?format=pprof", "35bc046187da0d82a66ac1fa96340e437f906dac7e4662ff99e5d70e5510aa97"},
	{"profile/F1", "155377375b7c6121c3b28e19900da391b7c2ff4920192fe6a9bc28c6c5e9d323"},
	{"profile/F1?format=pprof", "b94ab00829a889647ddcc54909c338bfef746a61934db444d4bfa39be111a07c"},
	{"profile/F2", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile/F2?format=pprof", "35bc046187da0d82a66ac1fa96340e437f906dac7e4662ff99e5d70e5510aa97"},
	{"profile/F3", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile/F3?format=pprof", "35bc046187da0d82a66ac1fa96340e437f906dac7e4662ff99e5d70e5510aa97"},
	{"profile/F4", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile/F4?format=pprof", "35bc046187da0d82a66ac1fa96340e437f906dac7e4662ff99e5d70e5510aa97"},
	{"profile/F5", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile/F5?format=pprof", "35bc046187da0d82a66ac1fa96340e437f906dac7e4662ff99e5d70e5510aa97"},
	{"profile/F6", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile/F6?format=pprof", "35bc046187da0d82a66ac1fa96340e437f906dac7e4662ff99e5d70e5510aa97"},
	{"profile/F7", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile/F7?format=pprof", "35bc046187da0d82a66ac1fa96340e437f906dac7e4662ff99e5d70e5510aa97"},
	{"profile/F8", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile/F8?format=pprof", "35bc046187da0d82a66ac1fa96340e437f906dac7e4662ff99e5d70e5510aa97"},
	{"profile/F12", "52edf9cf3251ec5f4967d08f34527867f429a5051bd125c65b7c7f5eb0f731c8"},
	{"profile/F12?format=pprof", "92fef480c9292957995fa1a0040ba4bdd4fb999f7fbe7504709e035d3498aff5"},
	{"profile/F13", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	{"profile/F13?format=pprof", "35bc046187da0d82a66ac1fa96340e437f906dac7e4662ff99e5d70e5510aa97"},
	{"profile/S1", "a99367c9a71bf24e76799f8b556d8f6c09ed6b0fd08c36cc11cfcd7ff330feff"},
	{"profile/S1?format=pprof", "26d16c79316c3b3cf78ca15178ee4a2c2bb0a4a8bf88767bae59f3d39419fc91"},
	{"profile/S2", "ce41a3966996fbecb9b53d5fa4901aacd1ee28fb143bed53bf766f38ff1243ba"},
	{"profile/S2?format=pprof", "c55f116e6d6a710d011a766fcdc09f1f7aa8d27c37de175439b54a0c94bbb9ab"},
	{"timeseries/F1", "d21542c8d3a70dbbefab58a9d573638419f6ecb54ca237e2eea412fcfe5cbed2"},
	{"timeseries/F12", "d1c8e24e34e0132378923244777b6ea219fc3f5142e57a4e1521d861a77af9a6"},
	{"timeseries/S1", "b6b5f7ba9ccab9b360c937227662e696125f3300dfce2fcc83dd3281e1419243"},
	{"timeseries/S2", "f7b20867e6b9383d808a98ad8ca5a7cbfb9849a41dd1334da995ea40710b8642"},
	{"exemplars/S1", "23185aa387c8d1864829018372d49473cf275f7f8ee8a6fc3ef4c1b4d75fa737"},
	{"exemplars/S2", "649c5ca1aec38a4a2d14639c328bcecfba4131d77c2e27a43fa6cfaa400eb2c1"},
	{"audit/S1", "ed1be0ec7a198cce58aaff61f9b1b689efb16db2eb459bbfc9e72ae4e912da3d"},
	{"audit/S2", "6be87cf4c3c224721b9afd51d49964e6e5d139c79c7c8fcd4fd178b80dd60c0f"},
	{"audit/L1", "10767744d67edc07e6fe645dc2af91594aab3f0ea5e1a293b1d35092bdf4d203"},
	{"experiments", "c156e63cfb74a13398fbeee4814e03728691c8b9ea0b58f3121ad8c0b87f2773"},
	{"baseline/diff", "0586d65dcd6bdf3a42cbae8638ca5ae4311e6d53840785b042f20a3b412b53c9"},
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestViewDigests runs each pinned CLI view and compares the SHA-256 of
// its stdout.
func TestViewDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every observability probe")
	}
	plan, err := os.ReadFile("../../examples/lossy-nfs.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range viewDigests {
		t.Run(c.args, func(t *testing.T) {
			a, out, errb, files := testApp()
			files["examples/lossy-nfs.json"] = bytes.NewBuffer(plan)
			args := append([]string{"-seed", "1"}, strings.Fields(c.args)...)
			if code := a.Execute(args); code != 0 {
				t.Fatalf("exit = %d: %s", code, errb.String())
			}
			if got := sha256Hex(out.Bytes()); got != c.want {
				t.Errorf("sha256 = %s, want %s", got, c.want)
			}
		})
	}
}

// TestServeDigests requests each pinned endpoint from a server with the
// CLI's default flags and compares the SHA-256 of its body. The baseline
// fixture is an F12 record with one ledger bumped, so the diff body
// carries a violation.
func TestServeDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every observability probe")
	}
	a, _, errb, files := testApp()
	if code := a.Execute([]string{"-seed", "1", "baseline", "record", "F12", "-baseline", "base.json"}); code != 0 {
		t.Fatalf("record exit = %d: %s", code, errb.String())
	}
	base := strings.Replace(files["base.json"].String(), `"disk.writes": 400`, `"disk.writes": 401`, 1)
	readFile := func(path string) ([]byte, error) {
		if path == "base.json" {
			return []byte(base), nil
		}
		return nil, fmt.Errorf("no file %s", path)
	}
	opts := cmdOpts{baseline: "base.json", window: sim.Duration(100 * time.Millisecond)}
	srv := httptest.NewServer(newServeHandler(core.DefaultConfig(), core.NewRunner(1), opts, readFile))
	defer srv.Close()
	for _, c := range serveDigests {
		t.Run(c.path, func(t *testing.T) {
			resp, body := get(t, srv.URL+"/api/"+c.path, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %s", resp.StatusCode, body)
			}
			if got := sha256Hex(body); got != c.want {
				t.Errorf("sha256 = %s, want %s", got, c.want)
			}
		})
	}
}
