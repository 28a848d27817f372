package main

// pinned holds each sim point's fingerprint for seed 1, taken from the
// simulator at the commit that added this benchmark. A speed-only change
// leaves every one of them byte-identical; a change that moves one must
// say why and update it here.
var pinned = map[string]string{
	// sim-synth
	"NetClone@30%": "lat=20208/6151/15872/36864/67584/104448/1421036 mean=20092.315618 gen=25214 done=25214 served=49609 cdrop=182 red=5 sw=25214/24577/24577/49609/24390/24582/15/49609",
	"Baseline@30%": "lat=20205/6151/24064/65536/151552/851968/1998379 mean=35253.581143 gen=25214 done=25214 served=25214 cdrop=0 red=0 sw=25214/0/0/25214/0/0/0/25214",
	"C-Clone@30%":  "lat=20291/6154/17408/37888/67584/100352/509938 mean=21343.665665 gen=25467 done=25467 served=50934 cdrop=0 red=25467 sw=50934/0/0/50934/0/0/0/50934",
	"NetClone@80%": "lat=54105/6182/31744/77824/159744/851968/2939078 mean=42551.111117 gen=67876 done=67876 served=79013 cdrop=2951 red=0 sw=67876/14088/14088/79013/11137/14088/87/79013",
	"Baseline@80%": "lat=54104/6151/30208/75776/159744/917504/2933163 mean=41728.022937 gen=67876 done=67876 served=67876 cdrop=0 red=0 sw=67876/0/0/67876/0/0/0/67876",
	// sim-fabric
	"Baseline@45%": "lat=22741/8587/33792/75776/155648/917504/1527962 mean=44585.955103 gen=28419 done=28419 served=28419 cdrop=0 red=0 sw=28419/0/0/28419/0/0/0/28419 cong=0/0/16/0",
	"NetClone@45%": "lat=22356/8629/57344/94208/155648/483328/2029452 mean=57949.312131 gen=28419 done=27967 served=45703 cdrop=1938 red=3 sw=28419/20885/20885/45703/17733/20589/98/45703 cong=1663/29240/64/13468",
}
