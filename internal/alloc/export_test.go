package alloc

// CheckPlanInvariants exposes the plan checks to the external fuzz test,
// which needs the stand profiles (package stand imports alloc).
var CheckPlanInvariants = checkPlanInvariants
