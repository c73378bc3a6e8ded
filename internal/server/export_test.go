package server

// ServeOne exposes the single-release test router to the external test
// package.
var ServeOne = serveOne
