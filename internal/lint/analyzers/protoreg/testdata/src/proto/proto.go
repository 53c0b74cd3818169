// Fixture modelled on internal/proto: one table of message bodies indexed
// by code. protoreg identifies it structurally (package proto, Code type,
// Body type).
package proto

type Code uint16

const (
	CodeInvalid Code = iota
	CodeHello
	CodeDead // want `protocol code CodeDead \(body Dead\) is in the table but never dispatched or constructed`
)

// Body is the message-body contract; its unexported method keeps every
// body inside this package.
type Body interface {
	Code() Code
	fields()
}

var table = [...]func() Body{
	CodeHello: func() Body { return &Hello{} },
	CodeDead:  func() Body { return &Dead{} },
}

type Hello struct{}

func (*Hello) Code() Code { return CodeHello }
func (*Hello) fields()    {}

type Dead struct{}

func (*Dead) Code() Code { return CodeDead }
func (*Dead) fields()    {}

// Never is a body no row of the table builds (the real package's own
// test refuses one); a dispatch arm naming it is dead.
type Never struct{}

func (*Never) Code() Code { return CodeInvalid }
func (*Never) fields()    {}
