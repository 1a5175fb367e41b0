package main

// Result digests of every sim case at the default seed, recorded with
// dorambench -record-digests. A simulator change that alters any result
// shows up as failed ops at that seed.
var corunDigests = map[string]string{
	"path-oram/mummer": "6beb9e6352d21013",
	"path-oram/libq":   "f23919049db37bc5",
	"path-oram/comm4":  "c75bc4c05a15f566",
	"d-oram/mummer":    "a66cbdf0949dbaab",
	"d-oram/libq":      "1ffc2bed1473d3aa",
	"d-oram/comm4":     "3437442a84e25168",
	"d-oram-k1/mummer": "aaf9dc61bda65eb2",
	"d-oram-k1/libq":   "bf6d80caa7af24fb",
	"d-oram-k1/comm4":  "699ae06a882f4b9a",
}

var idleDigests = map[string]string{
	"d-oram/libq":      "b735b65f9758425b",
	"d-oram/mummer":    "196653b0ec034bdf",
	"path-oram/libq":   "9d6a9c2237413886",
	"path-oram/mummer": "aa2da47f15b76f41",
}
