#include "config/xml.hh"

#include <cctype>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace gpusimpow {
namespace xml {

namespace {

/** Recursive-descent parser over the document's TextCursor. */
class Parser
{
  public:
    explicit Parser(std::string_view content) : _in(content) {}

    std::unique_ptr<Node>
    parseDocument()
    {
        _in.skipSpace();
        std::string_view declaration;
        if (_in.consume("<?xml") && !_in.until("?>", declaration))
            fail("unterminated XML declaration");
        skipMisc();
        auto root = parseElement();
        skipMisc();
        if (_in.remaining() != 0)
            fail("trailing content after root element");
        return root;
    }

  private:
    TextCursor _in;

    [[noreturn]] void
    fail(const std::string &what)
    {
        fatal("XML parse error at ", _in.where(), ": ", what);
    }

    /** Skip whitespace and comments. */
    void
    skipMisc()
    {
        _in.skipSpace();
        while (_in.consume("<!--")) {
            skipComment();
            _in.skipSpace();
        }
    }

    void
    skipComment()
    {
        // Caller consumed "<!--".
        std::string_view body;
        if (!_in.until("-->", body))
            fail("unterminated comment");
    }

    static bool
    isNameChar(char c)
    {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
               c == '-' || c == '.' || c == ':';
    }

    std::string
    parseName()
    {
        std::string_view name = _in.span(isNameChar);
        if (name.empty())
            fail("expected a name");
        return std::string(name);
    }

    std::string
    decodeEntities(std::string_view raw)
    {
        std::string out;
        for (size_t i = 0; i < raw.size(); ++i) {
            if (raw[i] != '&') {
                out.push_back(raw[i]);
                continue;
            }
            size_t semi = raw.find(';', i);
            if (semi == std::string_view::npos)
                fail("unterminated entity reference");
            std::string_view entity = raw.substr(i + 1, semi - i - 1);
            if (entity == "amp")
                out.push_back('&');
            else if (entity == "lt")
                out.push_back('<');
            else if (entity == "gt")
                out.push_back('>');
            else if (entity == "quot")
                out.push_back('"');
            else if (entity == "apos")
                out.push_back('\'');
            else
                fail("unknown entity '&" + std::string(entity) + ";'");
            i = semi;
        }
        return out;
    }

    void
    parseAttributes(Node &node)
    {
        while (true) {
            _in.skipSpace();
            char c = _in.peek();
            if (c == '>' || c == '/' || c == '?')
                return;
            std::string key = parseName();
            _in.skipSpace();
            if (!_in.consume("="))
                fail("expected '=' after attribute name '" + key + "'");
            _in.skipSpace();
            const std::string quote(1, _in.peek());
            if (quote != "\"" && quote != "'")
                fail("attribute value must be quoted");
            _in.consume(quote);
            std::string_view value;
            if (!_in.until(quote, value))
                fail("unterminated attribute value");
            node.attributes[key] = decodeEntities(value);
        }
    }

    std::unique_ptr<Node>
    parseElement()
    {
        if (!_in.consume("<"))
            fail("expected '<'");
        auto node = std::make_unique<Node>();
        node->name = parseName();
        parseAttributes(*node);
        if (_in.consume("/>"))
            return node;
        if (!_in.consume(">"))
            fail("expected '>' to close start tag <" + node->name + ">");
        parseContent(*node);
        return node;
    }

    void
    parseContent(Node &node)
    {
        std::string text;
        while (true) {
            text += _in.span([](char c) { return c != '<'; });
            if (_in.remaining() == 0)
                fail("unterminated element <" + node.name + ">");
            if (_in.consume("<!--")) {
                skipComment();
            } else if (_in.consume("</")) {
                std::string closing = parseName();
                if (closing != node.name) {
                    fail("mismatched close tag </" + closing +
                         "> for <" + node.name + ">");
                }
                _in.skipSpace();
                if (!_in.consume(">"))
                    fail("expected '>' in close tag");
                node.text = trim(decodeEntities(text));
                return;
            } else {
                node.children.push_back(parseElement());
            }
        }
    }
};

void
indentInto(std::ostringstream &oss, int indent)
{
    for (int i = 0; i < indent; ++i)
        oss << "  ";
}

} // namespace

const Node *
Node::child(const std::string &tag) const
{
    for (const auto &c : children) {
        if (c->name == tag)
            return c.get();
    }
    return nullptr;
}

std::vector<const Node *>
Node::childrenNamed(const std::string &tag) const
{
    std::vector<const Node *> out;
    for (const auto &c : children) {
        if (c->name == tag)
            out.push_back(c.get());
    }
    return out;
}

bool
Node::hasAttribute(const std::string &key) const
{
    return attributes.find(key) != attributes.end();
}

const std::string &
Node::attribute(const std::string &key) const
{
    auto it = attributes.find(key);
    if (it == attributes.end())
        fatal("element <", name, "> is missing attribute '", key, "'");
    return it->second;
}

std::string
Node::attributeOr(const std::string &key, const std::string &dflt) const
{
    auto it = attributes.find(key);
    return it == attributes.end() ? dflt : it->second;
}

std::string
Node::toString(int indent) const
{
    std::ostringstream oss;
    indentInto(oss, indent);
    oss << "<" << name;
    for (const auto &[key, value] : attributes)
        oss << " " << key << "=\"" << escape(value) << "\"";
    if (children.empty() && text.empty()) {
        oss << "/>\n";
        return oss.str();
    }
    oss << ">";
    if (!text.empty())
        oss << escape(text);
    if (!children.empty()) {
        oss << "\n";
        for (const auto &c : children)
            oss << c->toString(indent + 1);
        indentInto(oss, indent);
    }
    oss << "</" << name << ">\n";
    return oss.str();
}

std::unique_ptr<Node>
parse(const std::string &content)
{
    Parser parser(content);
    return parser.parseDocument();
}

std::unique_ptr<Node>
parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open XML file '", path, "'");
    std::ostringstream oss;
    oss << in.rdbuf();
    return parse(oss.str());
}

std::string
escape(const std::string &raw)
{
    std::string out;
    for (char c : raw) {
        switch (c) {
          case '&': out += "&amp;"; break;
          case '<': out += "&lt;"; break;
          case '>': out += "&gt;"; break;
          case '"': out += "&quot;"; break;
          case '\'': out += "&apos;"; break;
          default: out.push_back(c);
        }
    }
    return out;
}

} // namespace xml
} // namespace gpusimpow
